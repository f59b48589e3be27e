package fault

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "outage:cxl:10s-20s,degrade:rdma:3x:5s-15s,flaky:rdma:0.2:burst=3,crash:n1:30s,flap:nas:10s/2s:x3:1m"
	sc, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Scenario{
		PoolOutages:  []PoolOutage{{Pool: "cxl", From: 10 * time.Second, To: 20 * time.Second}},
		PoolDegrades: []PoolDegrade{{Pool: "rdma", From: 5 * time.Second, To: 15 * time.Second, Factor: 3}},
		FlakyFetches: []FlakyFetch{{Pool: "rdma", Prob: 0.2, Burst: 3}},
		NodeCrashes:  []NodeCrash{{Node: "n1", At: 30 * time.Second}},
		LinkFlaps:    []LinkFlap{{Pool: "nas", From: time.Minute, Period: 10 * time.Second, Down: 2 * time.Second, Count: 3}},
	}
	got, _ := json.Marshal(sc)
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Fatalf("parsed scenario\n  %s\nwant\n  %s", got, exp)
	}
	if sc.Empty() {
		t.Fatal("non-trivial scenario reported Empty")
	}
}

// TestValidateHoldsScenariosToTheSpecRules: a parsed spec passes
// Validate, and a structured scenario breaking one of the grammar's
// rules fails it, naming the clause.
func TestValidateHoldsScenariosToTheSpecRules(t *testing.T) {
	sc, err := ParseSpec("outage:cxl:10s-20s,degrade:rdma:3x:5s-15s,flaky:rdma:0.2:burst=3,crash:n1:30s,flap:nas:10s/2s:x3:1m")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("parsed scenario fails Validate: %v", err)
	}
	bad := Scenario{
		FlakyFetches: []FlakyFetch{{Pool: "rdma", Prob: 0.2}},
		PoolDegrades: []PoolDegrade{{Pool: "cxl", To: time.Second, Factor: 1}},
	}
	err = bad.Validate()
	if err == nil || !strings.Contains(err.Error(), "pool_degrades[0]") {
		t.Fatalf("Validate(factor 1) = %v, want an error naming pool_degrades[0]", err)
	}
}

func TestParseSpecFlakyWindow(t *testing.T) {
	sc, err := ParseSpec("flaky:rdma:0.5:10s-20s")
	if err != nil {
		t.Fatal(err)
	}
	f := sc.FlakyFetches[0]
	if f.From != 10*time.Second || f.To != 20*time.Second || f.Prob != 0.5 {
		t.Fatalf("flaky clause = %+v", f)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"bogus:cxl:1s-2s",                  // unknown kind
		"outage:cxl",                       // missing window
		"outage:cxl:20s-10s",               // empty window
		"degrade:rdma:3:1s-2s",             // factor missing x suffix
		"degrade:rdma:0.5x:1s-2s",          // factor <= 1
		"flaky:rdma:1.5",                   // probability out of range
		"flaky:rdma:0.2:oops",              // bad option
		"crash:n1:soon",                    // bad duration
		"flap:nas:10s/20s:x3",              // down > period
		"flap:nas:10s/2s:3",                // count missing x prefix
		"flaky:rdma:NaN",                   // NaN probability
		"degrade:cxl:NaNx:1s-2s",           // NaN factor
		"degrade:cxl:Infx:1s-2s",           // infinite factor
		"flap:rdma:1s/100ms:x3:5s:garbage", // field after <from>
		"crash:n1:-5s",                     // negative crash time
		"flap:rdma:1s/100ms:x3:-5s",        // negative flap offset
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
	}
	if sc, err := ParseSpec(""); err != nil || !sc.Empty() {
		t.Fatalf("empty spec = (%+v, %v), want empty scenario", sc, err)
	}
}

// FuzzFaultParseSpec: the parser never panics, and every scenario it
// accepts carries finite factors and probabilities inside their
// documented ranges, and no negative crash time or flap offset.
func FuzzFaultParseSpec(f *testing.F) {
	for _, seed := range []string{
		"outage:cxl:10s-20s,degrade:rdma:3x:5s-15s,flaky:rdma:0.2:burst=3,crash:n1:30s,flap:nas:10s/2s:x3:1m",
		"flaky:rdma:0.5:10s-20s",
		"flaky:rdma:NaN",
		"degrade:cxl:NaNx:1s-2s",
		"degrade:cxl:Infx:1s-2s",
		"flap:rdma:1s/100ms:x3:5s:garbage",
		"crash:n1:-5s",
		"flap:rdma:1s/100ms:x3:-5s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, d := range sc.PoolDegrades {
			if !(d.Factor > 1) || math.IsInf(d.Factor, 0) {
				t.Fatalf("%q: degrade factor %v outside (1, +Inf)", spec, d.Factor)
			}
		}
		for _, fl := range sc.FlakyFetches {
			if !(fl.Prob > 0 && fl.Prob <= 1) {
				t.Fatalf("%q: flaky probability %v outside (0, 1]", spec, fl.Prob)
			}
		}
		for _, c := range sc.NodeCrashes {
			if c.At < 0 {
				t.Fatalf("%q: crash time %v is negative", spec, c.At)
			}
		}
		for _, fl := range sc.LinkFlaps {
			if fl.From < 0 {
				t.Fatalf("%q: flap offset %v is negative", spec, fl.From)
			}
		}
	})
}

func TestInjectorOutageWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 1, Scenario{
		PoolOutages: []PoolOutage{{Pool: "cxl", From: 10 * time.Second, To: 20 * time.Second}},
	})
	if _, down := inj.PoolDown("cxl", 5*time.Second); down {
		t.Fatal("pool down before the window")
	}
	trace, down := inj.PoolDown("cxl", 15*time.Second)
	if !down || trace == "" {
		t.Fatalf("PoolDown inside window = (%q, %v), want traced outage", trace, down)
	}
	if _, down := inj.PoolDown("rdma", 15*time.Second); down {
		t.Fatal("outage leaked to another pool")
	}
	if _, down := inj.PoolDown("cxl", 20*time.Second); down {
		t.Fatal("window not half-open: down at To")
	}
	v := inj.FetchVerdict("cxl", 12*time.Second)
	var unavailable *mem.ErrPoolUnavailable
	if !errors.As(v.Err, &unavailable) || v.FaultTrace != trace {
		t.Fatalf("verdict inside window = %+v, want *ErrPoolUnavailable with trace %q", v, trace)
	}
	if got := inj.Counts()["pool-outage"]; got != 2 {
		t.Fatalf("pool-outage count = %d, want 2 (in-window probe + verdict)", got)
	}
}

func TestInjectorFlakyBurstAndDeterminism(t *testing.T) {
	sc := Scenario{FlakyFetches: []FlakyFetch{{Pool: "rdma", Prob: 0.3, Burst: 3}}}
	run := func(seed int64) []bool {
		inj := NewInjector(sim.NewEngine(1), seed, sc)
		outcomes := make([]bool, 200)
		for i := range outcomes {
			outcomes[i] = inj.FetchVerdict("rdma", time.Duration(i)*time.Millisecond).Err != nil
		}
		return outcomes
	}
	a, b := run(7), run(7)
	fails, burstRun := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed verdict streams diverge at attempt %d", i)
		}
		if a[i] {
			fails++
			burstRun++
		} else {
			burstRun = 0
		}
	}
	if fails == 0 {
		t.Fatal("prob 0.3 over 200 attempts injected nothing")
	}
	// Burst=3 forces each sampled failure to take down at least 3
	// consecutive attempts (unless re-sampled, runs are multiples of 3).
	if fails%3 != 0 && burstRun == 0 {
		t.Logf("burst accounting: %d fails", fails)
	}
	c := run(8)
	diverged := false
	for i := range a {
		if a[i] != c[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical verdict streams (rng unused?)")
	}
}

func TestInjectorDegradeVerdict(t *testing.T) {
	inj := NewInjector(sim.NewEngine(1), 1, Scenario{
		PoolDegrades: []PoolDegrade{{Pool: "rdma", From: 0, To: 10 * time.Second, Factor: 4}},
	})
	v := inj.FetchVerdict("rdma", 5*time.Second)
	if v.Err != nil || v.LatencyScale != 4 || v.FaultTrace == "" {
		t.Fatalf("degrade verdict = %+v, want scale 4 with trace", v)
	}
	if v := inj.FetchVerdict("rdma", 11*time.Second); v.LatencyScale != 0 || v.Err != nil {
		t.Fatalf("verdict outside window = %+v, want clean pass", v)
	}
}

func TestInjectorNodeCrashFires(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 1, Scenario{
		NodeCrashes: []NodeCrash{{Node: "n2", At: 3 * time.Second}},
	})
	var crashed []string
	var at time.Duration
	inj.OnNodeCrash(func(node string) { crashed = append(crashed, node); at = eng.Now() })
	inj.Arm()
	inj.Arm() // idempotent
	eng.Run()
	if len(crashed) != 1 || crashed[0] != "n2" || at != 3*time.Second {
		t.Fatalf("crashes = %v at %v, want [n2] at 3s", crashed, at)
	}
	st := inj.Status()
	if !st.Armed || st.Injected["node-crash"] != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestLinkFlapCompilesToWindows(t *testing.T) {
	inj := NewInjector(sim.NewEngine(1), 1, Scenario{
		LinkFlaps: []LinkFlap{{Pool: "rdma", From: 10 * time.Second, Period: 10 * time.Second, Down: 2 * time.Second, Count: 2}},
	})
	downAt := func(at time.Duration) bool { _, d := inj.PoolDown("rdma", at); return d }
	cases := map[time.Duration]bool{
		9 * time.Second:  false,
		11 * time.Second: true, // flap 1: [10s, 12s)
		15 * time.Second: false,
		21 * time.Second: true, // flap 2: [20s, 22s)
		31 * time.Second: false,
	}
	for at, want := range cases {
		if got := downAt(at); got != want {
			t.Errorf("PoolDown at %v = %v, want %v", at, got, want)
		}
	}
}

// TestArmRecordsPoolSpansInNameOrder: a scenario with faults of each kind
// on two pools records its fault spans in the same order on every Arm,
// pools in name order within each kind.
func TestArmRecordsPoolSpansInNameOrder(t *testing.T) {
	sc, err := ParseSpec("outage:rdma:30s-40s,outage:cxl:10s-20s,degrade:rdma:2x:5s-50s,degrade:cxl:3x:5s-50s," +
		"flaky:rdma:0.1:5s-50s,flaky:cxl:0.2:5s-50s")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fault/pool-outage cxl", "fault/pool-outage rdma",
		"fault/pool-degrade cxl", "fault/pool-degrade rdma",
		"fault/flaky-fetch cxl", "fault/flaky-fetch rdma",
	}
	for run := 0; run < 20; run++ {
		inj := NewInjector(sim.NewEngine(1), 1, sc)
		tr := obs.NewTracer(16)
		inj.SetTracer(tr)
		inj.Arm()
		var got []string
		for _, sp := range tr.Spans() {
			got = append(got, sp.Name+" "+sp.Attr("pool"))
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("arm %d recorded %q, want %q", run, got, want)
		}
	}
}
