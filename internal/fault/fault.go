// Package fault is a deterministic, virtual-time fault-injection engine
// for the simulated TrEnv substrate. A Scenario schedules pool outages,
// latency degradation, probabilistic flaky fetches, node crashes, and
// link flaps against virtual time; an Injector compiles the scenario
// into an agent that mem.Pool consults on every fetch. All randomness
// comes from a dedicated seeded rng (never wall clock, never the global
// rand), so two same-seed chaos runs produce byte-identical traces and
// metrics, and a zero-fault run consumes no extra draws at all.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PoolOutage makes every fetch against Pool fail with
// *mem.ErrPoolUnavailable inside [From, To).
type PoolOutage struct {
	Pool string        `json:"pool"`
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
}

// PoolDegrade multiplies fetch latency on Pool by Factor inside
// [From, To) — the fetch succeeds, slowly.
type PoolDegrade struct {
	Pool   string        `json:"pool"`
	From   time.Duration `json:"from"`
	To     time.Duration `json:"to"`
	Factor float64       `json:"factor"`
}

// FlakyFetch fails each fetch attempt on Pool with probability Prob
// inside [From, To) (From == To == 0 means the whole run). Burst > 1
// makes each sampled failure take down the next Burst-1 attempts too,
// modeling correlated link errors.
type FlakyFetch struct {
	Pool  string        `json:"pool"`
	From  time.Duration `json:"from"`
	To    time.Duration `json:"to"`
	Prob  float64       `json:"prob"`
	Burst int           `json:"burst,omitempty"`
}

// NodeCrash kills Node at virtual time At. The injector only raises the
// event; whoever owns the node (cluster, platform) wires OnNodeCrash to
// the actual kill.
type NodeCrash struct {
	Node string        `json:"node"`
	At   time.Duration `json:"at"`
}

// LinkFlap is a periodic outage: starting at From, the link to Pool goes
// down for Down at the start of each Period, Count times. It compiles to
// Count PoolOutage windows.
type LinkFlap struct {
	Pool   string        `json:"pool"`
	From   time.Duration `json:"from"`
	Period time.Duration `json:"period"`
	Down   time.Duration `json:"down"`
	Count  int           `json:"count"`
}

// Scenario is a full fault schedule.
type Scenario struct {
	PoolOutages  []PoolOutage  `json:"pool_outages,omitempty"`
	PoolDegrades []PoolDegrade `json:"pool_degrades,omitempty"`
	FlakyFetches []FlakyFetch  `json:"flaky_fetches,omitempty"`
	NodeCrashes  []NodeCrash   `json:"node_crashes,omitempty"`
	LinkFlaps    []LinkFlap    `json:"link_flaps,omitempty"`
}

// Empty reports whether the scenario schedules no faults at all.
func (s Scenario) Empty() bool {
	return len(s.PoolOutages) == 0 && len(s.PoolDegrades) == 0 &&
		len(s.FlakyFetches) == 0 && len(s.NodeCrashes) == 0 && len(s.LinkFlaps) == 0
}

// window is one compiled outage interval [from, to).
type window struct {
	kind  string // "pool-outage" or "link-flap"
	from  time.Duration
	to    time.Duration
	trace string
}

type degradeWin struct {
	from   time.Duration
	to     time.Duration
	factor float64
	trace  string
}

type flakyState struct {
	from  time.Duration
	to    time.Duration
	prob  float64
	burst int
	left  int // remaining forced failures of the current burst
	trace string
}

func (f *flakyState) active(at time.Duration) bool {
	if f.from == 0 && f.to == 0 {
		return true
	}
	return at >= f.from && at < f.to
}

// Injector compiles a Scenario into a mem.FaultAgent. It carries its own
// seeded rng so probabilistic faults never perturb the engine's stream:
// every non-faulted draw in a chaos run matches the fault-free run.
type Injector struct {
	eng    *sim.Engine
	rng    *rand.Rand
	sc     Scenario
	tracer *obs.Tracer

	outages  map[string][]window
	degrades map[string][]degradeWin
	flaky    map[string][]*flakyState

	counts  map[string]int64
	kinds   []string // sorted keys of counts, fixed at compile time
	onCrash func(node string)
	armed   bool
}

// NewInjector compiles sc against eng's virtual clock. seed feeds the
// injector's private rng (mix it with the engine seed for independence).
func NewInjector(eng *sim.Engine, seed int64, sc Scenario) *Injector {
	inj := &Injector{
		eng:      eng,
		rng:      rand.New(rand.NewSource(seed*0x9e3779b9 + 0x666175756c74)), // "faults"
		sc:       sc,
		outages:  make(map[string][]window),
		degrades: make(map[string][]degradeWin),
		flaky:    make(map[string][]*flakyState),
		counts:   make(map[string]int64),
	}
	for i, o := range sc.PoolOutages {
		trace := obs.TraceIDFor("fault", "pool-outage", o.Pool, strconv.Itoa(i))
		inj.outages[o.Pool] = append(inj.outages[o.Pool], window{"pool-outage", o.From, o.To, trace})
		inj.counts["pool-outage"] = 0
	}
	for i, f := range sc.LinkFlaps {
		for k := 0; k < f.Count; k++ {
			from := f.From + time.Duration(k)*f.Period
			trace := obs.TraceIDFor("fault", "link-flap", f.Pool, strconv.Itoa(i), strconv.Itoa(k))
			inj.outages[f.Pool] = append(inj.outages[f.Pool], window{"link-flap", from, from + f.Down, trace})
		}
		inj.counts["link-flap"] = 0
	}
	for pool := range inj.outages {
		ws := inj.outages[pool]
		sort.Slice(ws, func(a, b int) bool { return ws[a].from < ws[b].from })
	}
	for i, d := range sc.PoolDegrades {
		trace := obs.TraceIDFor("fault", "pool-degrade", d.Pool, strconv.Itoa(i))
		inj.degrades[d.Pool] = append(inj.degrades[d.Pool], degradeWin{d.From, d.To, d.Factor, trace})
		inj.counts["pool-degrade"] = 0
	}
	for i, f := range sc.FlakyFetches {
		trace := obs.TraceIDFor("fault", "flaky-fetch", f.Pool, strconv.Itoa(i))
		inj.flaky[f.Pool] = append(inj.flaky[f.Pool], &flakyState{f.From, f.To, f.Prob, f.Burst, 0, trace})
		inj.counts["flaky-fetch"] = 0
	}
	if len(sc.NodeCrashes) > 0 {
		inj.counts["node-crash"] = 0
	}
	for k := range inj.counts {
		inj.kinds = append(inj.kinds, k)
	}
	sort.Strings(inj.kinds)
	return inj
}

// Scenario returns the compiled schedule.
func (inj *Injector) Scenario() Scenario { return inj.sc }

// SetTracer records each scheduled fault as a span when Arm runs.
func (inj *Injector) SetTracer(t *obs.Tracer) { inj.tracer = t }

// OnNodeCrash registers the callback fired when a NodeCrash event lands.
func (inj *Injector) OnNodeCrash(fn func(node string)) { inj.onCrash = fn }

// Arm activates the schedule: fault spans are recorded up front (their
// windows are known at compile time, so their IDs are deterministic) and
// node-crash events are planted into the engine. Idempotent.
func (inj *Injector) Arm() {
	if inj.armed {
		return
	}
	inj.armed = true
	if inj.tracer != nil {
		// Pools in name order, so every run records the spans alike.
		for _, pool := range sortedPools(inj.outages) {
			for _, w := range inj.outages[pool] {
				sp := obs.NewSpan("fault/"+w.kind, w.from, w.to)
				sp.SetAttr("pool", pool)
				sp.AssignIDs(w.trace)
				inj.tracer.Record(sp)
			}
		}
		for _, pool := range sortedPools(inj.degrades) {
			for _, d := range inj.degrades[pool] {
				sp := obs.NewSpan("fault/pool-degrade", d.from, d.to)
				sp.SetAttr("pool", pool)
				sp.SetAttr("factor", strconv.FormatFloat(d.factor, 'g', -1, 64))
				sp.AssignIDs(d.trace)
				inj.tracer.Record(sp)
			}
		}
		for _, pool := range sortedPools(inj.flaky) {
			for _, f := range inj.flaky[pool] {
				sp := obs.NewSpan("fault/flaky-fetch", f.from, f.to)
				sp.SetAttr("pool", pool)
				sp.SetAttr("prob", strconv.FormatFloat(f.prob, 'g', -1, 64))
				sp.AssignIDs(f.trace)
				inj.tracer.Record(sp)
			}
		}
	}
	for i, nc := range inj.sc.NodeCrashes {
		nc := nc
		trace := obs.TraceIDFor("fault", "node-crash", nc.Node, strconv.Itoa(i))
		at := nc.At
		if at < inj.eng.Now() {
			at = inj.eng.Now()
		}
		inj.eng.At(at, "fault/crash/"+nc.Node, func(p *sim.Proc) {
			inj.counts["node-crash"]++
			if inj.tracer != nil {
				sp := obs.NewSpan("fault/node-crash", p.Now(), p.Now())
				sp.SetAttr("node", nc.Node)
				sp.AssignIDs(trace)
				inj.tracer.Record(sp)
			}
			if inj.onCrash != nil {
				inj.onCrash(nc.Node)
			}
		})
	}
}

// sortedPools returns m's pool names in order.
func sortedPools[W any](m map[string]W) []string {
	pools := make([]string, 0, len(m))
	for pool := range m {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	return pools
}

// Armed reports whether Arm has run.
func (inj *Injector) Armed() bool { return inj.armed }

func activeWindow(ws []window, at time.Duration) *window {
	for i := range ws {
		if at >= ws[i].from && at < ws[i].to {
			return &ws[i]
		}
	}
	return nil
}

// FetchVerdict implements mem.FaultAgent: outages dominate, then flaky
// failures, then degradation.
func (inj *Injector) FetchVerdict(pool string, at time.Duration) mem.FetchVerdict {
	if w := activeWindow(inj.outages[pool], at); w != nil {
		inj.counts[w.kind]++
		return mem.FetchVerdict{
			Err:        &mem.ErrPoolUnavailable{Pool: pool, FaultTrace: w.trace},
			FaultTrace: w.trace,
		}
	}
	for _, f := range inj.flaky[pool] {
		if !f.active(at) {
			continue
		}
		if f.left > 0 {
			f.left--
			inj.counts["flaky-fetch"]++
			return mem.FetchVerdict{
				Err:        &mem.ErrFlakyFetch{Pool: pool, FaultTrace: f.trace},
				FaultTrace: f.trace,
			}
		}
		if f.prob > 0 && inj.rng.Float64() < f.prob {
			if f.burst > 1 {
				f.left = f.burst - 1
			}
			inj.counts["flaky-fetch"]++
			return mem.FetchVerdict{
				Err:        &mem.ErrFlakyFetch{Pool: pool, FaultTrace: f.trace},
				FaultTrace: f.trace,
			}
		}
	}
	for _, d := range inj.degrades[pool] {
		if at >= d.from && at < d.to {
			inj.counts["pool-degrade"]++
			return mem.FetchVerdict{LatencyScale: d.factor, FaultTrace: d.trace}
		}
	}
	return mem.FetchVerdict{}
}

// PoolDown implements mem.FaultAgent.
func (inj *Injector) PoolDown(pool string, at time.Duration) (string, bool) {
	if w := activeWindow(inj.outages[pool], at); w != nil {
		inj.counts[w.kind]++
		return w.trace, true
	}
	return "", false
}

// Counts returns injected-fault counts by kind (copy).
func (inj *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

// Status is the JSON shape of GET /chaos: the armed schedule plus how
// often each fault kind has fired so far.
type Status struct {
	Armed    bool             `json:"armed"`
	Scenario Scenario         `json:"scenario"`
	Injected map[string]int64 `json:"injected"`
}

// Status snapshots the injector for the control plane.
func (inj *Injector) Status() Status {
	return Status{Armed: inj.armed, Scenario: inj.sc, Injected: inj.Counts()}
}

// RegisterMetrics publishes trenv_faults_injected_total{kind=...} into
// reg, with extra labels merged in. Kinds are fixed when the scenario
// compiles, so the registration's set is filled here; the family exists
// even for a scenario without faults.
func (inj *Injector) RegisterMetrics(reg *obs.Registry, extra map[string]string) {
	var set obs.ValueSet
	for _, k := range inj.kinds {
		k := k
		labels := map[string]string{"kind": k}
		for lk, lv := range extra {
			labels[lk] = lv
		}
		set.Add(labels, func() float64 { return float64(inj.counts[k]) })
	}
	reg.CounterSet("trenv_faults_injected_total", "Injected faults by kind.", &set)
}

// String summarizes the scenario for logs.
func (s Scenario) String() string {
	if s.Empty() {
		return "no faults"
	}
	return fmt.Sprintf("%d outages, %d degrades, %d flaky, %d crashes, %d flaps",
		len(s.PoolOutages), len(s.PoolDegrades), len(s.FlakyFetches), len(s.NodeCrashes), len(s.LinkFlaps))
}
