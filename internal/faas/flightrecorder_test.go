package faas

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

func TestPlatformRecorderSamplesRun(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, time.Second)

	tr := smallTrace(1)
	pl.RunTrace(tr)

	if rec.Samples() == 0 {
		t.Fatal("recorder never sampled")
	}
	inv := rec.Lookup("trenv_invocations_total", nil)
	if inv == nil {
		t.Fatal("no invocation series recorded")
	}
	last := inv.Last()
	if int(last.Value) != pl.Metrics().Invocations() {
		t.Fatalf("final sampled invocations = %v, metrics say %d", last.Value, pl.Metrics().Invocations())
	}
	if last.T < tr.Duration() {
		t.Fatalf("pump stopped at %v, before trace end %v", last.T, tr.Duration())
	}
	// Fault counters flow from pagetable through the runtime aggregate.
	if pl.FaultStats().MinorFaults == 0 {
		t.Fatal("node fault aggregate never incremented")
	}
	if ts := rec.Lookup("trenv_page_minor_faults_total", nil); ts == nil || ts.Last().Value == 0 {
		t.Fatal("fault series missing from recorder")
	}
	// Template sharing series exist for TrEnv policies.
	if ts := rec.Lookup("trenv_template_sharing_factor", nil); ts == nil || ts.Last().Value <= 0 {
		t.Fatal("sharing factor series missing")
	}
}

// TestRecorderPumpCoversUnsortedTrace: RunTrace accepts an unsorted
// trace, so the recorder pump, which also drives alert evaluation, runs
// until the latest arrival has been served, not until the last
// element's arrival.
func TestRecorderPumpCoversUnsortedTrace(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, 0)
	pl.RunTrace(workload.Trace{{At: 10 * time.Second, Function: "JS"}, {At: 0, Function: "JS"}})
	if n := pl.Metrics().Invocations(); n != 2 {
		t.Fatalf("invocations = %d, want 2", n)
	}
	last := rec.Lookup("trenv_invocations_total", nil).Last()
	if last.T < 10*time.Second || last.Value != 2 {
		t.Fatalf("last invocations sample %v at %v, want 2 at or after the 10s arrival", last.Value, last.T)
	}
}

// TestMemoryGaugeSampled: node DRAM usage over virtual time is the
// flight recorder's trenv_node_mem_used_bytes series.
func TestMemoryGaugeSampled(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, time.Second)
	pl.RunTrace(smallTrace(5))
	ts := rec.Lookup("trenv_node_mem_used_bytes", nil)
	if ts == nil {
		t.Fatal("node DRAM series missing from recorder")
	}
	var peak float64
	for _, pt := range ts.Points() {
		peak = max(peak, pt.Value)
	}
	if peak == 0 {
		t.Fatal("node DRAM never sampled above zero")
	}
}

func TestPlatformRecorderDeterministic(t *testing.T) {
	run := func() string {
		pl := newPlatform(t, PolicyTrEnvCXL)
		reg := obs.NewRegistry()
		pl.RegisterMetrics(reg)
		rec := obs.NewRecorder(reg, 0)
		pl.AttachRecorder(rec, time.Second)
		pl.RunTrace(smallTrace(42))
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Fatal("same-seed recorder exports differ")
	}
}

func TestPlatformSLOTracking(t *testing.T) {
	cfg := DefaultConfig(PolicyFaasd)
	cfg.SLOTarget = time.Millisecond // impossibly tight: every cold start breaches
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	pl.RunTrace(smallTrace(3))

	slo := pl.SLO()
	if slo == nil {
		t.Fatal("SLO tracker not created")
	}
	fns := slo.Handles()
	if len(fns) == 0 {
		t.Fatal("no functions tracked")
	}
	var total, breaches int64
	for _, fn := range fns {
		total += slo.Total(fn.Name)
		breaches += slo.Breaches(fn.Name)
	}
	if total != int64(pl.Metrics().Invocations()) {
		t.Fatalf("SLO events %d != invocations %d", total, pl.Metrics().Invocations())
	}
	if breaches == 0 {
		t.Fatal("1ms target breached by nothing?")
	}

	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE trenv_slo_burn_rate gauge",
		"trenv_slo_breaches_total{function=",
		`window="1m0s"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterMetricsLabeledKeepsNodesApart(t *testing.T) {
	reg := obs.NewRegistry()
	for i, seed := range []int64{1, 2} {
		cfg := DefaultConfig(PolicyFaasd)
		cfg.Seed = seed
		pl := New(cfg)
		for _, p := range workload.Table4() {
			if err := pl.Register(p); err != nil {
				t.Fatal(err)
			}
		}
		pl.RunTrace(smallTrace(seed))
		pl.RegisterMetricsLabeled(reg, map[string]string{"node": []string{"n0", "n1"}[i]})
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`trenv_invocations_total{node="n0"}`,
		`trenv_invocations_total{node="n1"}`,
		`trenv_node_mem_peak_bytes{node="n0"}`,
		`trenv_page_minor_faults_total{node="n1"}`,
		`trenv_e2e_latency_ms_count{function="_all",node="n0"}`,
		`trenv_pool_used_bytes{node="n1",pool="tmpfs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet registry missing %q", want)
		}
	}
}
