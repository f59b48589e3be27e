package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestParseHedgePolicyRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"off",
		"delay:10ms",
		"delay:1.5s",
		"clone:2",
		"clone:3",
		"p95",
		"p99.9,min=2ms",
		"p90,min=1ms,fallback=50ms,samples=10",
		"delay:10ms,deadline=1s",
		"clone:2,deadline=500ms",
	} {
		hp, err := ParseHedgePolicy(spec)
		if err != nil {
			t.Fatalf("ParseHedgePolicy(%q): %v", spec, err)
		}
		hp2, err := ParseHedgePolicy(hp.Spec())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", hp.Spec(), spec, err)
		}
		if hp != hp2 {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", spec, hp, hp.Spec(), hp2)
		}
	}
	if hp, err := ParseHedgePolicy(""); err != nil || hp.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled policy", hp, err)
	}
}

func TestParseHedgePolicyRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"delay:",
		"delay:xyz",
		"delay:-5ms",
		"delay:0s",
		"clone:1",
		"clone:abc",
		"p0",
		"p100",
		"pabc",
		"delay:10ms,min=1ms", // min= needs percentile mode
		"clone:2,samples=5",  // samples= needs percentile mode
		"p95,samples=0",
		"p95,min=0s",
		"p95,fallback=junk",
		"delay:10ms,deadline=0s",
		"p95,unknown=1",
		"p95,noequals",
		"pNaN",
	} {
		if _, err := ParseHedgePolicy(spec); err == nil {
			t.Errorf("ParseHedgePolicy(%q) accepted, want error", spec)
		}
	}
}

// FuzzParseHedgePolicy: the parser never panics, and every policy it
// accepts survives a Spec round trip unchanged.
func FuzzParseHedgePolicy(f *testing.F) {
	for _, seed := range []string{"off", "delay:10ms", "clone:3", "p99.9,min=2ms", "p90,min=1ms,fallback=50ms,samples=10,deadline=1s", "pNaN"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		hp, err := ParseHedgePolicy(spec)
		if err != nil {
			return
		}
		again, err := ParseHedgePolicy(hp.Spec())
		if err != nil {
			t.Fatalf("%q: rendered %q does not parse: %v", spec, hp.Spec(), err)
		}
		if !reflect.DeepEqual(again, hp) {
			t.Fatalf("%q: %+v renders %q, which parses to %+v", spec, hp, hp.Spec(), again)
		}
	})
}

// hedgeCluster builds an n-node rack with JS registered and both hooks
// capturing.
func hedgeCluster(t *testing.T, n int) (*Cluster, *[]faas.InvocationResult, *[]faas.InvocationResult) {
	t.Helper()
	c, err := New(n, faas.DefaultConfig(faas.PolicyTrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	terminal := new([]faas.InvocationResult)
	settled := new([]faas.InvocationResult)
	c.SetResultHook(func(node int, r faas.InvocationResult) { *terminal = append(*terminal, r) })
	c.SetSettleHook(func(fn string, latency time.Duration, r faas.InvocationResult) {
		*settled = append(*settled, r)
	})
	return c, terminal, settled
}

// addE2E deals samples (ms) to JS's E2E histogram on the rack's nodes,
// round robin over the nodes named by spread.
func addE2E(c *Cluster, spread []int, samples ...float64) {
	for i, v := range samples {
		c.Nodes()[spread[i%len(spread)]].Metrics().Fn("JS").E2E.Add(v)
	}
}

// oneTo returns the samples 1, 2, ..., n.
func oneTo(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// mergedPercentile is the estimator as it was: copy every node's JS
// samples into one histogram, sort it and read the percentile.
func mergedPercentile(c *Cluster, p float64) time.Duration {
	var merged sim.Histogram
	for _, node := range c.Nodes() {
		merged.Merge(&node.Metrics().PerFn["JS"].E2E)
	}
	return time.Duration(merged.Percentile(p) * float64(time.Millisecond))
}

// TestHedgeDelayPercentile: in percentile mode the trigger is the
// fallback until the rack's nodes together hold enough E2E samples for
// the function, then the percentile of their union, floored by min=.
func TestHedgeDelayPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide := make([]float64, 301)
	for i := range wide {
		wide[i] = float64(rng.Intn(4000)) / 8 // ties and fractions
	}
	for _, tc := range []struct {
		name    string
		spec    string
		nodes   []int // the nodes that get samples, round robin
		samples []float64
		want    time.Duration // 0: the copy-merge-sort percentile
	}{
		{"below the default 20 samples", "p95", []int{0, 1, 2}, oneTo(19), DefaultHedgeDelay},
		{"at the default 20 samples", "p50", []int{0, 1, 2}, oneTo(20), 10500 * time.Microsecond},
		{"below samples= falls back", "p95,fallback=40ms,samples=10", []int{0, 1, 2}, oneTo(9), 40 * time.Millisecond},
		{"below samples= without fallback", "p95,samples=10", []int{0, 1}, oneTo(9), DefaultHedgeDelay},
		{"at samples= reads the percentile", "p50,samples=10", []int{0, 1, 2}, oneTo(10), 5500 * time.Microsecond},
		{"min= floors the percentile", "p50,min=8ms,samples=10", []int{0, 1, 2}, oneTo(10), 8 * time.Millisecond},
		{"min= below the percentile", "p50,min=2ms,samples=10", []int{0, 1, 2}, oneTo(10), 5500 * time.Microsecond},
		{"p95 over three nodes, one empty", "p95", []int{0, 2, 2}, wide, 0},
		{"p5 over three nodes, one empty", "p5", []int{2, 0}, wide, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := hedgeCluster(t, 3)
			hp, err := ParseHedgePolicy(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			c.SetHedgePolicy(hp)
			for _, node := range c.Nodes() {
				node.Metrics().Fn("JS") // every node knows JS; some have no samples
			}
			addE2E(c, tc.nodes, tc.samples...)
			want := tc.want
			if want == 0 {
				want = mergedPercentile(c, hp.Percentile)
			}
			if got := c.hedge.hedgeDelay("JS"); got != want {
				t.Fatalf("hedgeDelay = %v, want %v", got, want)
			}
			// Samples added after a query join the sorted ones.
			addE2E(c, []int{1}, 1000, 0.5, 1000)
			if est, ok := c.hedge.estimate("JS"); !ok || est != mergedPercentile(c, hp.Percentile) {
				t.Fatalf("after 3 more samples estimate = %v, %v; want %v, true", est, ok, mergedPercentile(c, hp.Percentile))
			}
		})
	}
}

// TestHedgeEstimateAllocatesNothing: on a warmed rack, reading the
// percentile trigger copies no sample and allocates nothing.
func TestHedgeEstimateAllocatesNothing(t *testing.T) {
	c, _, _ := hedgeCluster(t, 3)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgePercentile, Percentile: 95})
	addE2E(c, []int{0, 1, 2}, oneTo(500)...)
	if _, ok := c.hedge.estimate("JS"); !ok {
		t.Fatal("estimate has no data on a warmed rack")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.hedge.estimate("JS") }); allocs != 0 {
		t.Fatalf("estimate allocates %v times per call, want 0", allocs)
	}
}

// TestHedgeLoserCancelled: with equal nodes the primary (head start)
// wins the race; the delayed hedge is cooperatively cancelled and the
// accounting still balances.
func TestHedgeLoserCancelled(t *testing.T) {
	c, terminal, settled := hedgeCluster(t, 2)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond})
	c.Invoke(0, "JS")
	c.Engine().Run()

	if c.Hedged() != 1 || c.HedgeWins() != 0 || c.Cancelled() != 1 {
		t.Fatalf("hedged=%d wins=%d cancelled=%d, want 1/0/1", c.Hedged(), c.HedgeWins(), c.Cancelled())
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
	if len(*settled) != 1 || (*settled)[0].Outcome != faas.OutcomeSuccess {
		t.Fatalf("settled = %+v, want one success", *settled)
	}
	var cancels, successes int
	for _, r := range *terminal {
		switch r.Outcome {
		case faas.OutcomeCancelled:
			cancels++
		case faas.OutcomeSuccess:
			successes++
		default:
			t.Fatalf("unexpected terminal outcome %q", r.Outcome)
		}
	}
	if cancels != 1 || successes != 1 {
		t.Fatalf("terminal outcomes: %d cancelled, %d success; want 1/1", cancels, successes)
	}
}

// TestHedgeWinsAfterPrimaryCrash: the primary's node dies mid-attempt;
// the already-launched hedge settles the race, counted as a hedge win
// with no re-dispatch (the sibling made it redundant).
func TestHedgeWinsAfterPrimaryCrash(t *testing.T) {
	c, _, settled := hedgeCluster(t, 2)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond})
	c.Invoke(0, "JS") // primary lands on n0 (lowest index, no warm state)
	c.Engine().At(5*time.Millisecond, "kill/n0", func(p *sim.Proc) {
		if err := c.KillNode(0); err != nil {
			t.Errorf("mid-run kill: %v", err)
		}
	})
	c.Engine().Run()

	if c.Hedged() != 1 || c.HedgeWins() != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", c.Hedged(), c.HedgeWins())
	}
	if c.Redispatched() != 0 {
		t.Fatalf("redispatched = %d, want 0 (the live sibling absorbs the crash)", c.Redispatched())
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
	if len(*settled) != 1 || (*settled)[0].Outcome != faas.OutcomeSuccess {
		t.Fatalf("settled = %+v, want one success from the hedge", *settled)
	}
}

// TestHedgeSpanLinks pins the hedge/JS span a traced race records: its
// attempts, hedges and winner_node attributes, and one link per attempt
// in launch order, the primary first, of which exactly one is hedge-won
// and names the settled result's trace.
func TestHedgeSpanLinks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nodes     int
		policy    HedgePolicy
		killAt    time.Duration // kill n0, the primary's node (0 = never)
		launched  []string      // each attempt's node, in launch order
		hedges    string
		winnerIdx int // launch index of the winning attempt
	}{
		{"clone:3 primary wins", 3, HedgePolicy{Mode: HedgeClone, Clones: 3}, 0, []string{"n0", "n1", "n2"}, "2", 0},
		{"delay hedge wins after primary crash", 2, HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond},
			5 * time.Millisecond, []string{"n0", "n1"}, "1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
			cfg.Tracer = obs.NewTracer(0)
			c, err := New(tc.nodes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			js, err := workload.ProfileByName("JS")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Register(js); err != nil {
				t.Fatal(err)
			}
			c.SetHedgePolicy(tc.policy)
			nodeOf := map[string]string{} // attempt trace ID -> node
			c.SetResultHook(func(_ int, r faas.InvocationResult) { nodeOf[r.TraceID] = r.Node })
			var settled []faas.InvocationResult
			c.SetSettleHook(func(_ string, _ time.Duration, r faas.InvocationResult) { settled = append(settled, r) })
			c.Invoke(0, "JS")
			if tc.killAt > 0 {
				c.Engine().At(tc.killAt, "kill/n0", func(*sim.Proc) {
					if err := c.KillNode(0); err != nil {
						t.Errorf("mid-run kill: %v", err)
					}
				})
			}
			c.Engine().Run()

			if len(settled) != 1 || settled[0].Outcome != faas.OutcomeSuccess {
				t.Fatalf("settled = %+v, want one success", settled)
			}
			var sp *obs.Span
			for _, s := range cfg.Tracer.Spans() {
				if s.Name == "hedge/JS" {
					if sp != nil {
						t.Fatal("two hedge/JS spans recorded")
					}
					sp = s
				}
			}
			if sp == nil {
				t.Fatal("no hedge/JS span recorded")
			}
			attempts := strconv.Itoa(len(tc.launched))
			if sp.Attr("attempts") != attempts || sp.Attr("hedges") != tc.hedges || sp.Attr("winner_node") != settled[0].Node {
				t.Fatalf("attempts=%q hedges=%q winner_node=%q, want %s/%s/%s",
					sp.Attr("attempts"), sp.Attr("hedges"), sp.Attr("winner_node"), attempts, tc.hedges, settled[0].Node)
			}
			if len(sp.Links) != len(tc.launched) {
				t.Fatalf("%d links, want one per attempt (%d)", len(sp.Links), len(tc.launched))
			}
			for i, l := range sp.Links {
				typ := "hedge-lost"
				if i == tc.winnerIdx {
					typ = "hedge-won"
					if l.TraceID != settled[0].TraceID {
						t.Fatalf("hedge-won link names %q, the settled result is %q", l.TraceID, settled[0].TraceID)
					}
				}
				if l.Type != typ || nodeOf[l.TraceID] != tc.launched[i] {
					t.Fatalf("link %d = %s to an attempt on %q, want %s to the attempt on %s",
						i, l.Type, nodeOf[l.TraceID], typ, tc.launched[i])
				}
			}
		})
	}
}

// TestHedgeSkipsWithoutSecondNode: a single-node rack cannot hedge —
// the trigger degrades to unhedged dispatch and counts a skip.
func TestHedgeSkipsWithoutSecondNode(t *testing.T) {
	c, _, settled := hedgeCluster(t, 1)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond})
	c.Invoke(0, "JS")
	c.Engine().Run()

	if c.Hedged() != 0 || c.HedgeSkips() != 1 {
		t.Fatalf("hedged=%d skips=%d, want 0/1", c.Hedged(), c.HedgeSkips())
	}
	if len(*settled) != 1 || (*settled)[0].Outcome != faas.OutcomeSuccess || c.Wedged() != 0 {
		t.Fatalf("settled=%+v wedged=%d, want one success, zero wedged", *settled, c.Wedged())
	}
}

// TestCloneFactorDistinctNodes: clone:3 on a 3-node rack races three
// attempts on three distinct nodes; exactly one settles, two cancel.
func TestCloneFactorDistinctNodes(t *testing.T) {
	c, terminal, settled := hedgeCluster(t, 3)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeClone, Clones: 3})
	c.Invoke(0, "JS")
	c.Engine().Run()

	if c.Hedged() != 2 || c.Cancelled() != 2 || c.HedgeSkips() != 0 {
		t.Fatalf("hedged=%d cancelled=%d skips=%d, want 2/2/0", c.Hedged(), c.Cancelled(), c.HedgeSkips())
	}
	nodes := map[string]bool{}
	for _, r := range *terminal {
		nodes[r.Node] = true
	}
	if len(*terminal) != 3 || len(nodes) != 3 {
		t.Fatalf("terminal attempts on nodes %v, want 3 attempts on 3 distinct nodes", nodes)
	}
	if len(*settled) != 1 || c.Wedged() != 0 {
		t.Fatalf("settled=%d wedged=%d, want 1/0", len(*settled), c.Wedged())
	}
}

// TestCloneFactorBeyondFleetSkipsSurplus: clone:3 on 2 nodes launches
// what it can (one clone) and skips the surplus rather than queueing a
// same-node duplicate.
func TestCloneFactorBeyondFleetSkipsSurplus(t *testing.T) {
	c, _, _ := hedgeCluster(t, 2)
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeClone, Clones: 3})
	c.Invoke(0, "JS")
	c.Engine().Run()

	if c.Hedged() != 1 || c.HedgeSkips() != 1 {
		t.Fatalf("hedged=%d skips=%d, want 1/1", c.Hedged(), c.HedgeSkips())
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
}

// TestRedispatchBudgetExhausted: with the crash re-dispatch budget at
// zero, a crashed invocation terminates as a synthetic
// redispatch-exhausted record (node -1) instead of re-enqueueing.
func TestRedispatchBudgetExhausted(t *testing.T) {
	c, err := New(2, faas.DefaultConfig(faas.PolicyTrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	c.hedge.maxRedispatch = 0
	var exhausted []faas.InvocationResult
	var exhaustedNode = 99
	c.SetResultHook(func(node int, r faas.InvocationResult) {
		if r.Outcome == faas.OutcomeRedispatchExhausted {
			exhausted = append(exhausted, r)
			exhaustedNode = node
		}
	})
	c.Invoke(0, "JS")
	c.Engine().At(5*time.Millisecond, "kill/n0", func(p *sim.Proc) {
		if err := c.KillNode(0); err != nil {
			t.Errorf("mid-run kill: %v", err)
		}
	})
	c.Engine().Run()

	if c.RedispatchExhausted() != 1 || c.Redispatched() != 0 {
		t.Fatalf("exhausted=%d redispatched=%d, want 1/0", c.RedispatchExhausted(), c.Redispatched())
	}
	if len(exhausted) != 1 || exhausted[0].Function != "JS" || exhausted[0].Err == nil {
		t.Fatalf("exhausted records = %+v, want one typed JS record", exhausted)
	}
	if exhaustedNode != -1 {
		t.Fatalf("exhausted record delivered with node %d, want -1 (synthetic)", exhaustedNode)
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
}

// TestRedispatchWithinBudgetRecovers: the default budget re-dispatches a
// crashed invocation to the survivor, which completes it.
func TestRedispatchWithinBudgetRecovers(t *testing.T) {
	c, _, settled := hedgeCluster(t, 2)
	c.Invoke(0, "JS")
	c.Engine().At(5*time.Millisecond, "kill/n0", func(p *sim.Proc) {
		if err := c.KillNode(0); err != nil {
			t.Errorf("mid-run kill: %v", err)
		}
	})
	c.Engine().Run()

	if c.Redispatched() != 1 || c.RedispatchExhausted() != 0 {
		t.Fatalf("redispatched=%d exhausted=%d, want 1/0", c.Redispatched(), c.RedispatchExhausted())
	}
	if len(*settled) != 1 || (*settled)[0].Outcome != faas.OutcomeSuccess {
		t.Fatalf("settled = %+v, want the re-dispatched attempt's success", *settled)
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
}

// TestHedgeShutdownLeavesAttemptUnsettled: an attempt that Shutdown
// unwinds never returns to its hedger, so no hook sees a result for it
// and it stays counted as wedged rather than settling with an empty
// outcome.
func TestHedgeShutdownLeavesAttemptUnsettled(t *testing.T) {
	c, terminal, _ := hedgeCluster(t, 2)
	var settled []string
	c.SetSettleHook(func(fn string, _ time.Duration, r faas.InvocationResult) {
		settled = append(settled, fn+":"+string(r.Outcome))
	})
	c.Invoke(0, "JS")
	c.Engine().RunUntil(50 * time.Millisecond) // JS is still starting
	c.Engine().Shutdown()

	if len(settled) != 0 || len(*terminal) != 0 {
		t.Fatalf("settled %q, result hook saw %d results; want none for an unwound attempt", settled, len(*terminal))
	}
	if c.Results() != 0 || c.Wedged() != 1 {
		t.Fatalf("results=%d wedged=%d, want 0/1", c.Results(), c.Wedged())
	}
}

// TestHedgeNodeOnResultRunsBeforeSettle: on a rack node, Config.OnResult
// sees each attempt's result before the hedger settles it, and the
// hedger settles exactly that result.
func TestHedgeNodeOnResultRunsBeforeSettle(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	var order []string
	var seen []faas.InvocationResult
	cfg.OnResult = func(r faas.InvocationResult) {
		order = append(order, "node:"+string(r.Outcome))
		seen = append(seen, r)
	}
	c, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := workload.ProfileByName("JS")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(js); err != nil {
		t.Fatal(err)
	}
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeClone, Clones: 2})
	var hooked []faas.InvocationResult
	c.SetResultHook(func(node int, r faas.InvocationResult) {
		order = append(order, "result:"+string(r.Outcome))
		hooked = append(hooked, r)
	})
	c.SetSettleHook(func(fn string, _ time.Duration, r faas.InvocationResult) {
		order = append(order, "settle:"+string(r.Outcome))
	})
	c.Invoke(0, "JS")
	c.Engine().Run()

	want := "node:success result:success settle:success node:cancelled result:cancelled"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("hook order %q, want %q", got, want)
	}
	if len(seen) != 2 || len(hooked) != 2 || seen[0] != hooked[0] || seen[1] != hooked[1] {
		t.Fatalf("the hedger handled %+v, the nodes reported %+v", hooked, seen)
	}
}

// TestHedgeDeadlinePolicy: a policy deadline pushes onto every node;
// an invocation that cannot meet it settles as deadline-exceeded once
// its last attempt gives up — still zero wedged.
func TestHedgeDeadlinePolicy(t *testing.T) {
	c, _, settled := hedgeCluster(t, 2)
	hp, err := ParseHedgePolicy("delay:2ms,deadline=1ms")
	if err != nil {
		t.Fatal(err)
	}
	c.SetHedgePolicy(hp)
	c.Invoke(0, "JS") // ~100ms of work against a 1ms deadline
	c.Engine().Run()

	if len(*settled) != 1 || (*settled)[0].Outcome != faas.OutcomeDeadline {
		t.Fatalf("settled = %+v, want one deadline-exceeded", *settled)
	}
	var hits int64
	for _, node := range c.Nodes() {
		hits += node.Metrics().DeadlineExceeded.Value()
	}
	if hits == 0 {
		t.Fatal("no node recorded a deadline hit")
	}
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
}

// hedgedChaosRun drives a bursty trace through a 3-node rack with
// hedging armed under flaky-RDMA chaos plus a node crash, returning the
// settle log rendered to deterministic lines.
func hedgedChaosRun(t *testing.T, seed int64) ([]string, *Cluster) {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.HotFraction = 0.4 // keep lazy rdma fetches (and their faults) on the path
	c, err := New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	c.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: 5 * time.Millisecond})
	var lines []string
	c.SetSettleHook(func(fn string, latency time.Duration, r faas.InvocationResult) {
		lines = append(lines, fmt.Sprintf("%s %s %s", fn, latency, r.Outcome))
	})
	inj := fault.NewInjector(c.Engine(), seed, fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.2, Burst: 2}},
		NodeCrashes:  []fault.NodeCrash{{Node: "n2", At: 30 * time.Second}},
	})
	c.AttachChaos(inj)
	tr := workload.W1Bursty(rand.New(rand.NewSource(seed)), workload.W1Config{
		Functions: []string{"JS", "DH", "CR", "IR"},
		Duration:  time.Minute,
		BurstGap:  10 * time.Second,
		BurstSize: 6,
		BurstSpan: time.Second,
	})
	c.RunTrace(tr)
	return lines, c
}

// TestHedgingChaosInvariantAndByteIdentity is the tentpole's acceptance
// check: hedging composed with flaky-RDMA chaos and a node crash leaves
// the extended invariant at zero (every attempt terminates exactly
// once), hedges demonstrably launch, and two same-seed runs settle
// identically, line for line.
func TestHedgingChaosInvariantAndByteIdentity(t *testing.T) {
	lines1, c := hedgedChaosRun(t, 7)
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d (dispatched=%d redispatched=%d hedged=%d results=%d cancelled=%d)",
			c.Wedged(), c.Dispatched(), c.Redispatched(), c.Hedged(), c.Results(), c.Cancelled())
	}
	if c.Hedged() == 0 {
		t.Fatal("no hedges launched; the policy was not exercised")
	}
	if got := c.Dispatched() + c.Redispatched() + c.Hedged(); got != c.Results()+c.Cancelled() {
		t.Fatalf("attempt ledger unbalanced: %d launched, %d terminated", got, c.Results()+c.Cancelled())
	}
	lines2, _ := hedgedChaosRun(t, 7)
	if len(lines1) != len(lines2) {
		t.Fatalf("same-seed runs settled %d vs %d invocations", len(lines1), len(lines2))
	}
	for i := range lines1 {
		if lines1[i] != lines2[i] {
			t.Fatalf("same-seed runs diverge at settle %d: %q vs %q", i, lines1[i], lines2[i])
		}
	}
}
