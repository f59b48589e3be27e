package obs_test

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/workload"
)

// observedNode builds one node with the full observed surface: the
// platform's metrics, its SLO tracker, build info, and the default
// alert rules, sampled into rings of the given capacity. It runs one
// invocation of every Table-4 function, so each per-function and SLO
// series exists before it returns the recorder, the engine, the node's
// SLO tracker and the virtual instant the run ended at.
func observedNode(tb testing.TB, capacity int) (*obs.Recorder, *alert.Engine, *obs.SLOTracker, time.Duration) {
	tb.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 1
	cfg.SLOTarget = 2 * time.Second
	cfg.Tracer = obs.NewTracer(0)
	pl := faas.New(cfg)
	var tr workload.Trace
	for i, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			tb.Fatal(err)
		}
		tr = append(tr, workload.Invocation{At: time.Duration(i) * 100 * time.Millisecond, Function: p.Name})
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	obs.RegisterBuildInfo(reg, nil)
	rec := obs.NewRecorder(reg, capacity)
	pl.AttachRecorder(rec, 0)
	ae := alert.New(alert.DefaultRules())
	ae.RegisterMetrics(reg, nil)
	pl.AttachAlerts(ae)
	pl.RunTrace(tr)
	return rec, ae, pl.SLO(), pl.Engine().Now()
}

// TestRecorderTickAllocs is the flight recorder's allocation ceiling:
// once the sample plan is compiled, no series appears and the alert
// rules are quiet, one sampling tick — every series read and pushed,
// every rule evaluated — allocates nothing. It measures two batches:
// one after the run, when every burn window is empty, and one while a
// burst of events sits in both windows, so each tick moves the burn
// windows' cursors past events.
func TestRecorderTickAllocs(t *testing.T) {
	const capacity = 8
	rec, ae, slo, now := observedNode(t, capacity)
	tick := func() {
		now += obs.DefaultSampleInterval
		rec.Sample(now)
	}
	// Past the longest burn window every rule has settled, and past the
	// ring capacity no ring grows.
	warm := int(5*time.Minute/obs.DefaultSampleInterval) + capacity
	for i := 0; i < warm; i++ {
		tick()
	}
	series, evals := rec.NumSeries(), ae.Evals()
	if series < 100 {
		t.Fatalf("only %d series recorded; the node's surface is missing", series)
	}
	for _, st := range ae.Snapshot() {
		if st.State != alert.StateInactive {
			t.Fatalf("rule %s is %s after warm-up; an active rule describes itself every tick", st.Rule.Name, st.State)
		}
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("steady tick allocates %v times, want 0", allocs)
	}

	// One breach in a burst of 100 at the node's default 0.99 objective
	// burns at about 1x, under every factor of the slo-burn rule. One tick
	// records the burst's value changes; the 101 measured ticks then span
	// 10.1 s, inside both windows.
	fn := slo.Handles()[0].Name
	for i := 0; i < 100; i++ {
		lat := time.Millisecond
		if i == 0 {
			lat = time.Hour
		}
		slo.Record(fn, now, lat)
	}
	tick()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("tick with full burn windows allocates %v times, want 0", allocs)
	}
	bad, total, objective := 1.0, 100.0, 0.99
	want := (bad / total) / (1 - objective)
	for _, w := range slo.Windows() {
		if got := slo.BurnRate(fn, now, w); got != want {
			t.Fatalf("%s burns %v over %v after the measured ticks, want %v: the burst left the window", fn, got, w, want)
		}
	}
	for _, st := range ae.Snapshot() {
		if st.State != alert.StateInactive {
			t.Fatalf("rule %s is %s during the burst", st.Rule.Name, st.State)
		}
	}
	if got := rec.NumSeries(); got != series {
		t.Fatalf("series grew %d -> %d during the measured ticks", series, got)
	}
	if ae.Evals() <= evals {
		t.Fatal("alert engine did not evaluate on the measured ticks")
	}
}

// BenchmarkRecorderSample is the obs layer's per-tick cost: one
// flight-recorder sample and alert evaluation over a node's full
// surface, with full rings.
func BenchmarkRecorderSample(b *testing.B) {
	rec, _, _, now := observedNode(b, obs.DefaultSeriesCapacity)
	for i := 0; i < obs.DefaultSeriesCapacity; i++ {
		now += obs.DefaultSampleInterval
		rec.Sample(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += obs.DefaultSampleInterval
		rec.Sample(now)
	}
	b.ReportMetric(float64(rec.NumSeries()), "series")
}

// BenchmarkRecorderSampleDense is the recorder's worst case: every
// series changes on every tick, so each keeps a step per retained
// point. It reports the per-tick cost with full rings and the heap the
// recorder retains per series.
func BenchmarkRecorderSampleDense(b *testing.B) {
	const series = 200
	var tick int64
	reg := obs.NewRegistry()
	for i := 0; i < series/2; i++ {
		labels := map[string]string{"i": strconv.Itoa(i)}
		step := int64(i + 1)
		reg.CounterFunc("dense_total", "A counter that grows every tick.", labels, func() int64 { return tick * step })
		reg.GaugeFunc("dense_gauge", "A gauge that moves every tick.", labels, func() float64 { return float64(tick%7) * float64(step) })
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := obs.NewRecorder(reg, obs.DefaultSeriesCapacity)
	var now time.Duration
	sample := func() {
		tick++
		now += obs.DefaultSampleInterval
		rec.Sample(now)
	}
	for i := 0; i < 3*obs.DefaultSeriesCapacity; i++ {
		sample()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample()
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/series, "heap-B/series")
	runtime.KeepAlive(rec)
}
