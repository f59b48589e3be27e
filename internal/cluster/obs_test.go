package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedCluster runs a bursty trace over a 3-node rack with a mostly-
// cold image placement, so execution pulls pages from the memory
// server's RDMA tier, and returns the shared tracer.
func tracedCluster(t *testing.T, seed int64) *obs.Tracer {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.HotFraction = 0.2 // most of every image sits on the cold RDMA tier
	tracer := obs.NewTracer(0)
	cfg.Tracer = tracer
	c, err := New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	c.RunTrace(workload.W1Bursty(rng, workload.W1Config{
		Functions: names,
		Duration:  3 * time.Minute,
		BurstGap:  60 * time.Second,
		BurstSize: 6,
		BurstSpan: 2 * time.Second,
	}))
	return tracer
}

// TestRemoteFetchOnTailCriticalPathLinksAcrossNodes is the cross-node
// causality acceptance check: at least one tail (>= P99) invocation
// must carry a remote-fetch step on its critical path whose link
// resolves to a pool-side span recorded on a different node, with the
// reverse "serves" link pointing back at the invocation.
func TestRemoteFetchOnTailCriticalPathLinksAcrossNodes(t *testing.T) {
	tracer := tracedCluster(t, 11)
	roots := tracer.Spans()
	var invs []*obs.Span
	var durs sim.Histogram
	for _, r := range roots {
		if strings.HasPrefix(r.Name, "invoke/") && r.Error == "" {
			invs = append(invs, r)
			durs.AddDuration(r.Duration())
		}
	}
	if len(invs) == 0 {
		t.Fatal("no invocations traced")
	}
	p99 := time.Duration(durs.Percentile(99) * float64(time.Millisecond))
	found := false
	for _, inv := range invs {
		if inv.Duration() < p99 {
			continue
		}
		for _, step := range obs.CriticalPath(inv) {
			if step.Name != "remote-fetch" || step.LinkedTrace == "" {
				continue
			}
			pool := tracer.Find(step.LinkedTrace)
			if pool == nil {
				t.Fatalf("linked trace %s not in tracer", step.LinkedTrace)
			}
			if pool.Attr("node") == inv.Attr("node") {
				t.Fatalf("pool-fetch span on %q is not cross-node (invocation on %q)",
					pool.Attr("node"), inv.Attr("node"))
			}
			served := false
			for _, l := range pool.Links {
				if l.TraceID == inv.TraceID && l.Type == "serves" {
					served = true
				}
			}
			if !served {
				t.Fatalf("pool-fetch span lacks a serves link back to %s", inv.TraceID)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no tail invocation has a cross-node remote fetch on its critical path")
	}
}

// TestClusterSpansCarryNodeIdentity checks every invocation root names
// its node (n0..n2), was placed by the rack dispatcher, and pool-side
// fetch spans live on the memory server.
func TestClusterSpansCarryNodeIdentity(t *testing.T) {
	tracer := tracedCluster(t, 7)
	nodes := map[string]bool{}
	poolFetches := 0
	for _, r := range tracer.Spans() {
		switch {
		case strings.HasPrefix(r.Name, "invoke/"):
			if r.TraceID == "" {
				t.Fatalf("invocation %s has no trace id", r.Name)
			}
			n := r.Attr("node")
			if n != "n0" && n != "n1" && n != "n2" {
				t.Fatalf("invocation on unexpected node %q", n)
			}
			if r.Error == "" && r.Attr("dispatcher") != "rack" {
				t.Fatalf("invocation missing dispatcher attr: %v", r.Attrs)
			}
			nodes[n] = true
		case strings.HasPrefix(r.Name, "pool-fetch/"):
			if got := r.Attr("node"); got != "mem0" {
				t.Fatalf("pool-fetch span homed on %q, want mem0", got)
			}
			poolFetches++
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("invocations landed on %d node(s), want a spread", len(nodes))
	}
	if poolFetches == 0 {
		t.Fatal("no pool-side fetch spans recorded")
	}
}
