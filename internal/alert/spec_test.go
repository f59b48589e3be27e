package alert

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSpecAllKinds(t *testing.T) {
	spec := `threshold:hot:g{node=n0,pool=cxl}:>=5:for=2s,` +
		`rate:errs:trenv_errors_total:>0.5:over=10s:for=1s,` +
		`burn:slo:IR:1m@14x|5m@2x:for=30s,` +
		`absence:pulse:trenv_invocations_total:30s`
	rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("got %d rules", len(rules))
	}
	hot := rules[0]
	if hot.Kind != KindThreshold || hot.Op != OpGE || hot.Value != 5 || hot.For != 2*time.Second {
		t.Fatalf("threshold = %+v", hot)
	}
	if hot.Labels["node"] != "n0" || hot.Labels["pool"] != "cxl" {
		t.Fatalf("selector labels = %+v (commas inside {} must not split clauses)", hot.Labels)
	}
	errs := rules[1]
	if errs.Kind != KindRate || errs.Over != 10*time.Second || errs.For != time.Second {
		t.Fatalf("rate = %+v", errs)
	}
	slo := rules[2]
	if slo.Kind != KindBurn || slo.Function != "IR" || len(slo.Burn) != 2 ||
		slo.Burn[0] != (BurnWindow{Window: time.Minute, Factor: 14}) ||
		slo.Burn[1] != (BurnWindow{Window: 5 * time.Minute, Factor: 2}) {
		t.Fatalf("burn = %+v", slo)
	}
	pulse := rules[3]
	if pulse.Kind != KindAbsence || pulse.Window != 30*time.Second || pulse.For != 0 {
		t.Fatalf("absence = %+v", pulse)
	}
}

func TestSpecRoundTrips(t *testing.T) {
	// Rule.Spec renders the canonical clause; parsing it back must yield
	// an identical rule (and an identical re-rendered spec).
	cases := append(DefaultRules(), []Rule{
		{Name: "sel", Kind: KindThreshold, Series: "g", Labels: map[string]string{"node": "n1", "pool": "rdma"}, Op: OpLT, Value: 0.25},
		{Name: "win", Kind: KindRate, Series: "c_total", Op: OpGE, Value: 3, Over: 7 * time.Second, For: 900 * time.Millisecond},
		{Name: "gone", Kind: KindAbsence, Series: "beat", Window: 45 * time.Second, For: 5 * time.Second},
	}...)
	for _, want := range cases {
		spec := want.Spec()
		rules, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(rules) != 1 {
			t.Fatalf("%s: %d rules", spec, len(rules))
		}
		if got := rules[0].Spec(); got != spec {
			t.Fatalf("round trip changed the clause:\n in  %s\n out %s", spec, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec, wantErr string
	}{
		{"bogus:x:g:>1", "unknown alert kind"},
		{"threshold::g:>1", "empty rule name"},
		{"threshold:a:g:>1,threshold:a:g:>2", "duplicate rule name"},
		{"threshold:a", "bad clause"},
		{"threshold:a:g", "want threshold"},
		{"threshold:a:g:1", "bad condition"},
		{"threshold:a:g:>x", "bad bound"},
		{"threshold:a:g{node}:>1", "bad label"},
		{"threshold:a:{node=n0}:>1", "bad selector"},
		{"threshold:a:g:>1:for=soon", "bad for"},
		{"threshold:a:g:>1:for=-2s", "negative for"},
		{"rate:a:g:>1:over=0s", "bad over"},
		{"burn:a::1m@2x", "empty function"},
		{"burn:a:*:1m-2x", "bad burn window"},
		{"burn:a:*:1m@0x", "bad burn factor"},
		{"burn:a:*:0s@2x", "bad burn window"},
		{"absence:a:g:0s", "bad window"},
		{"absence:a:g:shortly", "invalid duration"},
		{"threshold:t:x:>NaN", "bad bound"},
		{"burn:b:*:1m@NaNx", "bad burn factor"},
		{"burn:b:*:1m@Infx", "bad burn factor"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Fatalf("%s: no error", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.spec, err, tc.wantErr)
		}
	}
}

// FuzzAlertParseSpec: every rule the parser accepts renders, through
// Spec, a clause that parses back to exactly one equal rule.
func FuzzAlertParseSpec(f *testing.F) {
	for _, seed := range []string{
		`threshold:hot:g{node=n0,pool=cxl}:>=5:for=2s`,
		`rate:errs:trenv_errors_total:>0.5:over=10s:for=1s`,
		`burn:slo:IR:1m@14x|5m@2x:for=30s`,
		`absence:pulse:trenv_invocations_total:30s`,
		`threshold:t:x:>NaN`,
		`burn:b:*:1m@NaNx`,
		`burn:b:*:1m@Infx`,
		`threshold:0:0{}:>0`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, want := range rules {
			again, err := ParseSpec(want.Spec())
			if err != nil {
				t.Fatalf("%q: rendered clause %q does not parse: %v", spec, want.Spec(), err)
			}
			if len(again) != 1 || !reflect.DeepEqual(again[0], want) {
				t.Fatalf("%q: rule %+v renders %q, which parses to %+v", spec, want, want.Spec(), again)
			}
		}
	})
}

func TestParseSpecSkipsBlankClauses(t *testing.T) {
	rules, err := ParseSpec(" , threshold:a:g:>1 , ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "a" {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestLoadFileAndSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	content := "# alerting rules\n\nthreshold:hot:g:>=5:for=2s\nabsence:pulse:beat:30s\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err := Load("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "hot" || rules[1].Name != "pulse" {
		t.Fatalf("rules = %+v", rules)
	}

	direct, err := Load("threshold:hot:g:>=5")
	if err != nil || len(direct) != 1 {
		t.Fatalf("direct spec: %v %+v", err, direct)
	}

	if _, err := Load("@" + filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing rules file: no error")
	}
}

func TestDefaultRulesCompile(t *testing.T) {
	rules := DefaultRules()
	if len(rules) == 0 {
		t.Fatal("no default rules")
	}
	New(rules) // panics on duplicates or empty names
	for _, r := range rules {
		if _, err := ParseSpec(r.Spec()); err != nil {
			t.Fatalf("default rule %s does not round-trip: %v", r.Name, err)
		}
	}
}
