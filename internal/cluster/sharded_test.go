package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newShardedFleet builds a traced fleet with every Table 4 function
// registered; cores > 0 overrides the default per-node core count.
func newShardedFleet(t *testing.T, racks, cores, workers int) *ShardedFleet {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 1
	if cores > 0 {
		cfg.Cores = cores
	}
	f, err := NewShardedFleet(ShardedConfig{
		Racks:        racks,
		NodesPerRack: 2,
		TraceCap:     4096,
		Workers:      workers,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := f.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func shardedTestTrace() workload.Trace {
	var fns []string
	for _, p := range workload.Table4() {
		fns = append(fns, p.Name)
	}
	az := workload.AzureConfig(fns)
	az.Duration = 2 * time.Minute
	az.MeanPerMin = 60
	return workload.Industrial(rand.New(rand.NewSource(3)), az)
}

// runShardedExports runs a fixed trace and returns two export surfaces
// the byte-identity contract covers, the Prometheus text and a digest
// of the merged span list, plus how many cross-shard messages the run
// delivered. (The report-bundle surface is asserted in the report
// package, which sits above this one.)
func runShardedExports(t *testing.T, cores, workers int) (string, string, int64) {
	t.Helper()
	f := newShardedFleet(t, 4, cores, workers)
	f.RunTrace(shardedTestTrace())
	if f.Wedged() != 0 {
		t.Fatalf("workers=%d: wedged=%d, want 0", workers, f.Wedged())
	}
	reg := obs.NewRegistry()
	f.RegisterMetrics(reg)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var spans strings.Builder
	for _, sp := range f.Spans() {
		fmt.Fprintf(&spans, "%s %s %d %d\n", sp.TraceID, sp.Name, sp.Start, sp.End)
	}
	return prom.String(), spans.String(), f.Group().Messages()
}

func TestShardedFleetRunsTraceAndSpills(t *testing.T) {
	f := newShardedFleet(t, 2, 0, 1)
	tr := shardedTestTrace()
	f.RunTrace(tr)
	if got := f.Invocations(); got != len(tr) {
		t.Fatalf("invocations = %d, want %d", got, len(tr))
	}
	if f.Wedged() != 0 {
		t.Fatalf("wedged = %d, want 0", f.Wedged())
	}
	if f.Group().Windows() == 0 {
		t.Fatal("no synchronization windows ran")
	}
	if len(f.Spans()) == 0 {
		t.Fatal("no spans recorded")
	}
}

// The fleet's logical schedule — and therefore every exported artifact —
// must be byte-identical at any worker count. One-core nodes saturate, so
// the second input spills and its windows carry cross-shard messages.
func TestShardedFleetInvariantOfWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cores    int
		messages bool
	}{
		{"default-cores", 0, false},
		{"one-core-spills", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			promWant, spansWant, messages := runShardedExports(t, tc.cores, 1)
			if !strings.Contains(promWant, "trenv_shard_windows_total") {
				t.Fatal("shard coordinator series missing from export")
			}
			if tc.messages && messages == 0 {
				t.Fatal("no cross-shard message delivered: the input checks no window that carries one")
			}
			for _, workers := range []int{2, 4, 8} {
				prom, spans, _ := runShardedExports(t, tc.cores, workers)
				if prom != promWant {
					t.Fatalf("workers=%d: Prometheus export differs from workers=1", workers)
				}
				if spans != spansWant {
					t.Fatalf("workers=%d: merged span export differs from workers=1", workers)
				}
			}
		})
	}
}

// Saturating a single home rack must spill work to peers over the
// fabric, and the spilled invocations must still all complete.
func TestShardedFleetSpillover(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 1
	cfg.Cores = 2 // tiny nodes so a burst saturates the home rack
	f, err := NewShardedFleet(ShardedConfig{Racks: 2, NodesPerRack: 2, Workers: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := f.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	home := f.Home("JS")
	// Staggered burst far beyond one rack's four cores: JS runs 120ms+,
	// so arrivals 1ms apart pile up well past saturation.
	var tr workload.Trace
	for i := 0; i < 64; i++ {
		tr = append(tr, workload.Invocation{At: time.Duration(i+1) * time.Millisecond, Function: "JS"})
	}
	f.RunTrace(tr)
	if f.Spillovers() == 0 {
		t.Fatal("burst on one home rack produced no spillovers")
	}
	if f.spillsFrom[home] == 0 {
		t.Fatalf("spills did not originate from home rack %d", home)
	}
	if got := f.Invocations(); got != 64 {
		t.Fatalf("invocations = %d, want 64", got)
	}
	if f.Wedged() != 0 {
		t.Fatalf("wedged = %d, want 0", f.Wedged())
	}
	if f.Group().Messages() == 0 {
		t.Fatal("spillovers without cross-shard messages")
	}
}

// A saturated rack spills round robin over the other racks only: each
// target is the rack after the previous one, skipping the origin, so 2n
// successive targets visit every other rack twice and never the origin.
func TestNextSpillTargetSkipsOrigin(t *testing.T) {
	for _, racks := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("racks=%d", racks), func(t *testing.T) {
			f, err := NewShardedFleet(ShardedConfig{Racks: racks, NodesPerRack: 1}, faas.DefaultConfig(faas.PolicyTrEnvCXL))
			if err != nil {
				t.Fatal(err)
			}
			for ri := 0; ri < racks; ri++ {
				want := ri
				for k := 0; k < 2*racks; k++ {
					want = (want + 1) % racks
					if want == ri {
						want = (want + 1) % racks
					}
					if got := f.nextSpillTarget(ri); got != want {
						t.Fatalf("spill %d from rack %d went to rack %d, want %d", k, ri, got, want)
					}
				}
			}
		})
	}
}

// Registration and homing must be pure functions of registration order.
func TestShardedFleetHomingDeterministic(t *testing.T) {
	f := newShardedFleet(t, 3, 0, 1)
	g := newShardedFleet(t, 3, 0, 1)
	for _, p := range workload.Table4() {
		if f.Home(p.Name) != g.Home(p.Name) {
			t.Fatalf("homing for %q differs between identical fleets", p.Name)
		}
	}
	if err := f.Register(workload.Table4()[0]); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestLatencyOverrideReachesRackPools: Config.Latency prices a rack's
// shared CXL pool and every fabric window with the same model each node
// prices its own pools with.
func TestLatencyOverrideReachesRackPools(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	lat.CXLDirectAccess *= 2
	lat.RDMAFetch *= 3
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Latency = &lat
	c, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Pool().Latency(); got != lat {
		t.Fatalf("rack pool latency = %+v, want the override %+v", got, lat)
	}
	f, err := NewShardedFleet(ShardedConfig{Racks: 3, NodesPerRack: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ri, rack := range f.Racks() {
		if got := rack.Pool().Latency(); got != lat {
			t.Errorf("rack %d pool latency = %+v, want the override", ri, got)
		}
		if got := f.fabric[ri].Blocks().Pool().Latency(); got != lat {
			t.Errorf("rack %d fabric window latency = %+v, want the override", ri, got)
		}
	}
}

func TestNewShardedFleetValidation(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	if _, err := NewShardedFleet(ShardedConfig{Racks: 0, NodesPerRack: 1}, cfg); err == nil {
		t.Fatal("zero racks accepted")
	}
	if _, err := NewShardedFleet(ShardedConfig{Racks: 2, NodesPerRack: 2}, faas.DefaultConfig(faas.PolicyCRIU)); err == nil {
		t.Fatal("non-TrEnv policy accepted")
	}
	withEngine := cfg
	withEngine.Engine = sim.NewEngine(1)
	if _, err := NewShardedFleet(ShardedConfig{Racks: 2, NodesPerRack: 2}, withEngine); err == nil {
		t.Fatal("caller-owned engine accepted")
	}
}

// newFleetWith builds an untraced fleet and registers the named functions.
func newFleetWith(t *testing.T, sc ShardedConfig, cfg faas.Config, fns ...string) *ShardedFleet {
	t.Helper()
	f, err := NewShardedFleet(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fns {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Register(prof); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// The home rack holds the function's only CXL copy; other racks reach it
// through their fabric windows.
func TestRegisterHomesOneCXLCopy(t *testing.T) {
	f := newFleetWith(t, ShardedConfig{Racks: 3, NodesPerRack: 2}, faas.DefaultConfig(faas.PolicyTrEnvCXL), "JS")
	home := f.Home("JS")
	for ri, rack := range f.Racks() {
		used := rack.Pool().Tracker().Used()
		if ri == home && used == 0 {
			t.Fatalf("home rack %d holds no image", ri)
		}
		if ri != home && used != 0 {
			t.Fatalf("non-home rack %d holds a CXL copy (%d bytes)", ri, used)
		}
		if ri != home && f.fabric[ri].Image("JS") == nil {
			t.Fatalf("non-home rack %d has no fabric window onto JS", ri)
		}
	}
	js, _ := workload.ProfileByName("JS")
	if err := f.Register(js); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

// Each rack's CXL pool holds exactly what a lone rack registering only
// the functions homed there would hold, so the fleet stores Table 4 once
// (blocks shared between functions dedup only within a rack). Every
// invocation of a trace still runs.
func TestShardedFleetRunTraceHoldsOneCopy(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	f := newFleetWith(t, ShardedConfig{Racks: 2, NodesPerRack: 2}, cfg)
	var tr workload.Trace
	for i, p := range workload.Table4() {
		if err := f.Register(p); err != nil {
			t.Fatal(err)
		}
		tr = append(tr, workload.Invocation{At: time.Duration(i) * time.Second, Function: p.Name})
	}
	for ri, rack := range f.Racks() {
		lone, err := New(2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range workload.Table4() {
			if f.Home(p.Name) != ri {
				continue
			}
			if err := lone.Register(p); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := rack.Pool().Tracker().Used(), lone.Pool().Tracker().Used(); got != want {
			t.Fatalf("rack %d holds %d CXL bytes, its homed functions alone need %d", ri, got, want)
		}
	}
	f.RunTrace(tr)
	if f.Invocations() != len(tr) || f.Wedged() != 0 {
		t.Fatalf("invocations=%d wedged=%d, want %d/0", f.Invocations(), f.Wedged(), len(tr))
	}
}

func TestHomeRackPreferredNoSpillWhenIdle(t *testing.T) {
	f := newFleetWith(t, ShardedConfig{Racks: 2, NodesPerRack: 2}, faas.DefaultConfig(faas.PolicyTrEnvCXL), "JS")
	var tr workload.Trace
	for i := 0; i < 3; i++ {
		tr = append(tr, workload.Invocation{At: time.Duration(i) * 20 * time.Second, Function: "JS"})
	}
	f.RunTrace(tr)
	if f.Invocations() != 3 {
		t.Fatalf("invocations = %d", f.Invocations())
	}
	if f.Spillovers() != 0 {
		t.Fatalf("spilled %d invocations with an idle home rack", f.Spillovers())
	}
	for ri, rack := range f.Racks() {
		if ri != f.Home("JS") && rack.Invocations() != 0 {
			t.Fatalf("non-home rack %d served traffic without saturation", ri)
		}
	}
}

// TestShardedFleetSpillRule: the home rack keeps an arrival exactly when
// the node pick chooses holds a warm instance or a free core. On
// one-core nodes, n0 runs JS from 0; at 5ms each row changes the rest
// of the rack, then an arrival comes due.
func TestShardedFleetSpillRule(t *testing.T) {
	trip := func(c *Cluster, i int) {
		for c.breakers[i].Allow() {
			c.breakers[i].Record(false)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, c *Cluster)
		spill bool
		node  int // the home node that serves the arrival when it stays
	}{
		{"free node up stays home", func(*testing.T, *Cluster) {}, false, 1},
		{"only free node killed spills", func(t *testing.T, c *Cluster) {
			if err := c.KillNode(1); err != nil {
				t.Error(err)
			}
		}, true, 0},
		{"only free node behind open breaker spills", func(_ *testing.T, c *Cluster) { trip(c, 1) }, true, 0},
		{"every breaker open with a free node stays home", func(_ *testing.T, c *Cluster) {
			trip(c, 0)
			trip(c, 1)
		}, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
			cfg.Cores = 1
			f := newFleetWith(t, ShardedConfig{Racks: 2, NodesPerRack: 2}, cfg, "JS")
			home := f.Home("JS")
			rack := f.Racks()[home]
			rack.Invoke(0, "JS") // n0 by the tie-break; runs past 100ms
			f.Group().Shard(home).At(5*time.Millisecond, "probe", func(p *sim.Proc) {
				if rack.nodes[0].Active() != 1 || rack.nodes[0].HasWarm("JS") {
					t.Errorf("n0 active=%d warm=%v, want one cold attempt in flight", rack.nodes[0].Active(), rack.nodes[0].HasWarm("JS"))
				}
				tc.setup(t, rack)
				f.dispatchOn(home, p, "JS")
			})
			f.Group().Run()
			if got := f.spillsFrom[home] == 1; got != tc.spill || f.Spillovers() > 1 {
				t.Fatalf("spills from home = %d, want spill=%v", f.spillsFrom[home], tc.spill)
			}
			away := f.Racks()[1-home].Invocations()
			if tc.spill && away != 1 {
				t.Fatalf("spill rack served %d invocations, want 1", away)
			}
			if !tc.spill {
				if away != 0 || rack.nodes[tc.node].Metrics().Invocations() != 1 {
					t.Fatalf("spill rack served %d, home n%d served %d; want 0 and 1",
						away, tc.node, rack.nodes[tc.node].Metrics().Invocations())
				}
			}
			if f.Invocations() != 2 || f.Wedged() != 0 {
				t.Fatalf("invocations=%d wedged=%d, want 2/0", f.Invocations(), f.Wedged())
			}
		})
	}
}

// Spilled instances fault their pages in over the fabric window, so they
// run slower than the home rack's direct CXL reads.
func TestSaturatedHomeRackSpillsOverRDMA(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Cores = 2 // tiny nodes: easy to saturate
	f := newFleetWith(t, ShardedConfig{Racks: 2, NodesPerRack: 1}, cfg, "JS")
	home := f.Home("JS")
	target := (home + 1) % 2
	var tr workload.Trace
	for i := 0; i < 8; i++ {
		tr = append(tr, workload.Invocation{At: time.Duration(i+1) * time.Millisecond, Function: "JS"})
	}
	f.RunTrace(tr)
	if f.Invocations() != 8 {
		t.Fatalf("invocations = %d", f.Invocations())
	}
	if f.Spillovers() == 0 {
		t.Fatal("no spillover despite a saturated home rack")
	}
	spillNode := f.Racks()[target].Nodes()[0]
	if spillNode.Metrics().Invocations() == 0 {
		t.Fatal("spill rack served nothing")
	}
	homeExec := f.Racks()[home].Nodes()[0].Metrics().Fn("JS").Exec.Min()
	spillExec := spillNode.Metrics().Fn("JS").Exec.Min()
	if spillExec <= homeExec {
		t.Fatalf("spill exec %.1fms not slower than home %.1fms (fabric fetches missing)", spillExec, homeExec)
	}
	if f.fabric[target].Blocks().Pool().Fetches() == 0 {
		t.Fatal("target rack's fabric window saw no fetches")
	}
}

// A one-rack fleet is the single-rack model: against a plain Cluster with
// the same seed, config, and trace it settles every invocation with the
// same latency and outcome, and executes the same number of events.
func TestShardedFleetOneRackMatchesCluster(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 1
	settles := func(lines *[]string) func(string, time.Duration, faas.InvocationResult) {
		return func(fn string, latency time.Duration, r faas.InvocationResult) {
			*lines = append(*lines, fmt.Sprintf("%s %s %s", fn, latency, r.Outcome))
		}
	}
	f := newFleetWith(t, ShardedConfig{Racks: 1, NodesPerRack: 2}, cfg)
	c, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := f.Register(p); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	var fleetLines, rackLines []string
	f.Racks()[0].SetSettleHook(settles(&fleetLines))
	c.SetSettleHook(settles(&rackLines))
	f.RunTrace(shardedTestTrace())
	c.RunTrace(shardedTestTrace())

	if len(fleetLines) == 0 || len(fleetLines) != len(rackLines) {
		t.Fatalf("fleet settled %d invocations, cluster %d", len(fleetLines), len(rackLines))
	}
	for i := range fleetLines {
		if fleetLines[i] != rackLines[i] {
			t.Fatalf("settle %d: fleet %q, cluster %q", i, fleetLines[i], rackLines[i])
		}
	}
	if f.Events() != c.Engine().Events() {
		t.Fatalf("fleet ran %d events, cluster %d", f.Events(), c.Engine().Events())
	}
}
