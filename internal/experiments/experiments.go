// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §9) on the simulated substrate. Each experiment returns
// a Result whose lines mirror the paper's rows/series; cmd/trenv-bench
// prints them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness; identical seeds reproduce bit-identical
	// results.
	Seed int64
	// Scale shrinks time-based workloads (1.0 = paper scale, 30-minute
	// traces; CI runs use ~0.1). Keep-alive windows scale along with
	// trace durations so workload semantics are preserved.
	Scale float64
	// Tracer, when non-nil, collects invocation span trees from every
	// platform an experiment builds (cmd/trenv-bench -trace).
	Tracer *obs.Tracer
	// Recorders, when non-nil, captures utilization-over-time series from
	// the trace-driven figure runs (cmd/trenv-bench -timeseries): each
	// platform run is sampled into its own recorder under a
	// "<experiment>/<workload>/<policy>" run name.
	Recorders *obs.RecorderSet
	// Chaos, when non-nil and non-empty, injects the fault schedule into
	// every platform containerPlatform builds: the fig17, fig18, fig20
	// and fig22 runs (cmd/trenv-bench -chaos). The racks Options.rack
	// builds ignore it. The injector is seeded from Seed, so chaos runs
	// stay reproducible.
	Chaos *fault.Scenario
	// Prefetch turns working-set prefetching on for every TrEnv platform
	// containerPlatform builds: the fig17, fig18, fig20 and fig22 runs
	// (cmd/trenv-bench -prefetch); non-TrEnv policies ignore it. The
	// racks Options.rack builds ignore it too, and the dedicated
	// "prefetch" experiment compares on vs off explicitly.
	Prefetch bool
	// Alerts, when non-nil, tracks one alert engine per observed run
	// (cmd/trenv-bench -alerts): rules evaluate on each run's recorder
	// samples, so it only takes effect alongside Recorders. The
	// dedicated "incidents" experiment creates its own engine when this
	// is nil.
	Alerts *alert.Set
	// Hedge, when non-nil, arms the request-hedging policy on the
	// availability experiment's rack (cmd/trenv-bench -hedge); every
	// other experiment ignores it. The dedicated "hedging" experiment
	// compares policies explicitly and is unaffected by this knob.
	Hedge *cluster.HedgePolicy
	// Shards sets the worker parallelism for sharded-fleet runs
	// (cmd/trenv-bench -shards, trenvd -shards). It is physical
	// parallelism only: the logical schedule, and therefore every line
	// an experiment emits, is invariant of it. 0 means sequential. The
	// "sharding" experiment executes its reference run at this count
	// and asserts the result matches the fixed worker-count sweep.
	Shards int
}

// workers reports the effective shard worker count (at least 1).
func (o Options) workers() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// chaosInjector compiles o.Chaos against eng, or returns nil when no
// chaos was requested.
func (o Options) chaosInjector(eng *sim.Engine) *fault.Injector {
	if o.Chaos == nil || o.Chaos.Empty() {
		return nil
	}
	inj := fault.NewInjector(eng, o.Seed, *o.Chaos)
	if o.Tracer != nil {
		inj.SetTracer(o.Tracer)
	}
	return inj
}

// observe wires a fresh registry + recorder to pl under the given run
// name when time-series capture is enabled, plus an alert engine when
// alerting is enabled too. Call before RunTrace.
func (o Options) observe(run string, pl *faas.Platform) {
	if o.Recorders == nil {
		return
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	pl.AttachRecorder(o.Recorders.Track(run, reg), o.Recorders.Every())
	if o.Alerts != nil {
		ae := o.Alerts.Track(run)
		ae.RegisterMetrics(reg, nil)
		pl.AttachAlerts(ae)
	}
}

// rack builds the 3-node TrEnv-CXL rack the rack experiments share, with
// profiles registered: keep-alive 10 min and warm-up 5 min (both
// scaled), a 64 GiB soft cap and o.Tracer. Its 0.4 hot fraction keeps a
// cold tail in the RDMA pool so fetches stay on the critical path:
// accesses read a prefix of each region (ReadFrac up to ~0.62), so every
// warm invocation lazily fetches the spilled pages over rdma. tweak
// adjusts the config before the rack is built.
func (o Options) rack(profiles []workload.FunctionProfile, tweak func(*faas.Config)) *cluster.Cluster {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = o.Seed
	cfg.KeepAlive = o.dur(10 * time.Minute)
	cfg.Warmup = o.dur(5 * time.Minute)
	cfg.SoftMemCap = 64 << 30
	cfg.HotFraction = 0.4
	cfg.Tracer = o.Tracer
	tweak(&cfg)
	c, err := cluster.New(3, cfg)
	if err != nil {
		panic("experiments: rack: " + err.Error())
	}
	for _, p := range profiles {
		if err := c.Register(p); err != nil {
			panic("experiments: rack register: " + err.Error())
		}
	}
	return c
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) dur(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.Scale)
}

func (o Options) count(n int) int {
	c := int(float64(n) * o.Scale)
	if c < 1 {
		c = 1
	}
	return c
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Notes string   `json:"notes,omitempty"`
	Lines []string `json:"lines"`
}

// Addf appends one formatted line.
func (r *Result) Addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(&b, "   (%s)\n", r.Notes)
	}
	for _, l := range r.Lines {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner maps experiment IDs to their functions.
type Runner func(Options) *Result

// All returns every experiment in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"table3", Table3},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig10", Fig10},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"fig22", Fig22},
		{"fig23", Fig23},
		{"fig24", Fig24},
		{"fig25", Fig25},
		{"fig26", Fig26},
		{"ablations", Ablations},
		{"sensitivity", Sensitivity},
		{"availability", Availability},
		{"incidents", Incidents},
		{"prefetch", Prefetch},
		{"hedging", Hedging},
		{"sharding", Sharding},
	}
}

// ByID returns the runner for an experiment ID.
func ByID(id string) (Runner, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }
