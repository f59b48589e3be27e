package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPickTieBreaksToLowestIndex: with every node idle, cold, and
// healthy, pick must return n0 — repeatedly. Placement is a pure
// function of cluster state, so equal-load ties cannot wander with
// call order or map iteration.
func TestPickTieBreaksToLowestIndex(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 100; i++ {
		if got := c.pick("JS"); got != c.nodes[0] {
			t.Fatalf("call %d: pick chose %s, want n0 on an all-equal rack", i, got.NodeName())
		}
	}
}

// TestPickExcludingSkipsToNextIndex: excluding the tie-break winner
// moves selection to the next index; excluding everything returns nil.
func TestPickExcludingSkipsToNextIndex(t *testing.T) {
	c := newCluster(t, 3)
	if got := c.pickExcluding("JS", map[string]bool{"n0": true}); got != c.nodes[1] {
		t.Fatalf("pick chose %v, want n1 with n0 excluded", got.NodeName())
	}
	all := map[string]bool{"n0": true, "n1": true, "n2": true}
	if got := c.pickExcluding("JS", all); got != nil {
		t.Fatalf("pick chose %s with every node excluded, want nil", got.NodeName())
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
		if !warm.HasWarm("JS") {
			t.Errorf("pick chose cold %s over the warm node", warm.NodeName())
		}
		if warm != c.nodes[0] {
			t.Errorf("warm instance on %s, expected n0 from the tie-break", warm.NodeName())
		}
		next := c.pickExcluding("JS", map[string]bool{warm.NodeName(): true})
		if next != c.nodes[1] {
			t.Errorf("with the warm node excluded pick chose %s, want n1", next.NodeName())
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
		if got := c.pick("JS"); got != c.nodes[1] {
			t.Errorf("pick chose %s while n0 is busy, want idle n1", got.NodeName())
		}
		done = true
	})
	c.Engine().Run()
	if !done {
		t.Fatal("probe never ran")
	}
}
