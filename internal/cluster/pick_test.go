package cluster

import (
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/sim"
)

// TestPickTieBreaksToLowestIndex: with every node idle, cold, and
// healthy, pick must return n0 — repeatedly. Placement is a pure
// function of cluster state, so equal-load ties cannot wander with
// call order.
func TestPickTieBreaksToLowestIndex(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 100; i++ {
		if got := c.pick("JS"); got != 0 {
			t.Fatalf("call %d: pick chose n%d, want n0 on an all-equal rack", i, got)
		}
	}
}

// TestPickExcludingSkipsToNextIndex: excluding the tie-break winner
// moves selection to the next index; excluding everything returns -1.
func TestPickExcludingSkipsToNextIndex(t *testing.T) {
	c := newCluster(t, 3)
	if got := c.pickExcluding("JS", nodeSet(0).with(0)); got != 1 {
		t.Fatalf("pick chose n%d, want n1 with n0 excluded", got)
	}
	all := nodeSet(0).with(0).with(1).with(2)
	if got := c.pickExcluding("JS", all); got != -1 {
		t.Fatalf("pick chose n%d with every node excluded, want -1", got)
	}
}

// TestPickExcludingPrefersWarmElsewhere: a warm instance beats the
// index tie-break, and excluding the warm node falls back to the
// lowest-index cold node.
func TestPickExcludingPrefersWarmElsewhere(t *testing.T) {
	c := newCluster(t, 3)
	// Warm exactly one node. Dispatch lands on n0 (tie-break); probe
	// while the instance is still inside its keep-alive window — letting
	// the engine drain fully would evict it again.
	c.Invoke(0, "JS")
	done := false
	c.Engine().At(time.Second, "probe/warm-pick", func(p *sim.Proc) {
		warm := c.pick("JS")
		if !c.nodes[warm].HasWarm("JS") {
			t.Errorf("pick chose cold n%d over the warm node", warm)
		}
		if warm != 0 {
			t.Errorf("warm instance on n%d, expected n0 from the tie-break", warm)
		}
		if next := c.pickExcluding("JS", nodeSet(0).with(warm)); next != 1 {
			t.Errorf("with the warm node excluded pick chose n%d, want n1", next)
		}
		done = true
	})
	c.Engine().Run()
	if !done {
		t.Fatal("probe never ran")
	}
}

// TestPickDeterminismUnderLoadSkew: a strictly less-loaded node
// displaces the incumbent, but equal load never does.
func TestPickDeterminismUnderLoadSkew(t *testing.T) {
	c := newCluster(t, 2)
	// Occupy n0 with a long invocation, then pick while it runs.
	c.Invoke(0, "PR") // ~600ms exec
	done := false
	c.Engine().At(5*time.Millisecond, "probe/pick", func(p *sim.Proc) {
		if got := c.pick("JS"); got != 1 {
			t.Errorf("pick chose n%d while n0 is busy, want idle n1", got)
		}
		done = true
	})
	c.Engine().Run()
	if !done {
		t.Fatal("probe never ran")
	}
}

// TestPickFallsBackToAliveNodesWhenNoBreakerAdmits: open-breaker nodes
// are skipped while any alive node admits traffic; once none does,
// placement falls back to every alive node.
func TestPickFallsBackToAliveNodesWhenNoBreakerAdmits(t *testing.T) {
	c := newCluster(t, 3)
	trip := func(i int) {
		for c.breakers[i].Allow() {
			c.breakers[i].Record(false)
		}
	}
	trip(0)
	trip(1)
	if got := c.pick("JS"); got != 2 {
		t.Fatalf("only n2 admits traffic: pick chose n%d, want n2", got)
	}
	if got := c.pickExcluding("JS", nodeSet(0).with(2)); got != -1 {
		t.Fatalf("the only healthy node excluded: pick chose n%d, want -1", got)
	}
	trip(2)
	if got := c.pick("JS"); got != 0 {
		t.Fatalf("every breaker open: pick chose n%d, want n0 among the alive nodes", got)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if got := c.pick("JS"); got != 1 {
		t.Fatalf("every breaker open, n0 down: pick chose n%d, want n1", got)
	}
}

// TestPickAllocatesNothing: placing an invocation on a warm four-node
// rack walks the nodes without building a candidate list.
func TestPickAllocatesNothing(t *testing.T) {
	c := newCluster(t, 4)
	c.Invoke(0, "JS")
	c.Invoke(0, "JS")
	c.Engine().RunUntil(time.Second) // both instances warm, inside keep-alive
	defer c.Engine().Shutdown()
	if w := c.pick("JS"); !c.nodes[w].HasWarm("JS") {
		t.Fatalf("pick chose cold n%d on a warm rack", w)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.pickExcluding("JS", nodeSet(0).with(c.pick("JS")))
	})
	if allocs != 0 {
		t.Fatalf("pick and pickExcluding allocate %.1f objects per call, want 0", allocs)
	}
}

// TestNewRejectsMoreThan64Nodes: a node set is one word, so a rack
// holds at most 64 nodes.
func TestNewRejectsMoreThan64Nodes(t *testing.T) {
	if _, err := New(65, faas.DefaultConfig(faas.PolicyTrEnvCXL)); err == nil {
		t.Fatal("a 65-node rack was accepted")
	}
	if _, err := New(64, faas.DefaultConfig(faas.PolicyTrEnvCXL)); err != nil {
		t.Fatalf("a 64-node rack was refused: %v", err)
	}
}
