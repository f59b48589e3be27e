package core

// End-to-end checks for the §8.1 security discussion: what repurposing
// reuses, what it must scrub, and which limitations are inherent.

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestRepurposeLeaksNothingAcrossTenants drives the full lifecycle: a JS
// instance writes memory; after release and repurposing, a CR instance
// in the same sandbox must observe none of it, and the upper dir holding
// JS's file writes must have been purged.
func TestRepurposeLeaksNothingAcrossTenants(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	cr := prof(t, "CR")
	place := snapshot.Placement{Hot: f.cxl, HotFraction: 1}
	jsImg, _ := f.store.Preprocess(js.Snapshot(), place)
	crImg, _ := f.store.Preprocess(cr.Snapshot(), place)
	run(t, func(p *sim.Proc) {
		inJS, _, err := f.rt.StartTrEnv(p, js, jsImg)
		if err != nil {
			t.Error(err)
			return
		}
		// JS runs and writes memory (CoW).
		if _, err := f.rt.Execute(p, inJS, ExecOptions{}); err != nil {
			t.Error(err)
			return
		}
		jsRSS := inJS.Restored.RSS()
		if jsRSS == 0 {
			t.Error("JS should have CoW'd pages")
			return
		}
		sbID := inJS.Sandbox.ID
		f.rt.Release(p, inJS, true)
		p.Sleep(5 * time.Millisecond)

		inCR, _, err := f.rt.StartTrEnv(p, cr, crImg)
		if err != nil {
			t.Error(err)
			return
		}
		if inCR.Sandbox.ID != sbID {
			t.Error("expected sandbox reuse for the leak check")
		}
		// Filesystem: upper dir purged, sandbox is CR's.
		if inCR.Sandbox.DirtyUpper {
			t.Error("file modifications leaked across repurpose")
		}
		if inCR.Sandbox.Function != "CR" {
			t.Error("wrong occupant after repurpose")
		}
		// Memory: fresh attach holds zero local pages and only CR's
		// regions; JS's written pages were freed with its instance.
		if inCR.Restored.RSS() != 0 {
			t.Error("memory state leaked into repurposed instance")
		}
		for _, as := range inCR.Restored.Spaces {
			for _, v := range as.VMAs() {
				if v.CountIn(pagetable.Local) != 0 {
					t.Errorf("region %q has local pages before any execution", v.Name)
				}
			}
		}
	})
}

// TestTemplateWritesNeverReachPool asserts the CoW invariant that makes
// cross-instance and cross-node sharing safe: no instance write ever
// mutates pool-resident state.
func TestTemplateWritesNeverReachPool(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, _ := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	poolBefore := f.cxl.Tracker().Used()
	run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			in, _, err := f.rt.StartTrEnv(p, js, img)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.rt.Execute(p, in, ExecOptions{}); err != nil {
				t.Error(err)
				return
			}
			f.rt.Release(p, in, true)
			p.Sleep(5 * time.Millisecond)
		}
	})
	if f.cxl.Tracker().Used() != poolBefore {
		t.Fatalf("pool mutated by instance writes: %d -> %d", poolBefore, f.cxl.Tracker().Used())
	}
}

// TestASLRLimitationIsDeterministicLayout documents §8.1.2's first
// limitation: every instance attached from the same template shares the
// snapshot's address-space layout, so ASLR provides no randomness.
func TestASLRLimitationIsDeterministicLayout(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, _ := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	layouts := make([][]uint64, 0, 2)
	run(t, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			in, _, err := f.rt.StartTrEnv(p, js, img)
			if err != nil {
				t.Error(err)
				return
			}
			var starts []uint64
			for _, as := range in.Restored.Spaces {
				for _, v := range as.VMAs() {
					starts = append(starts, v.Start)
				}
			}
			layouts = append(layouts, starts)
		}
	})
	if len(layouts) != 2 || len(layouts[0]) == 0 {
		t.Fatal("layouts not captured")
	}
	for i := range layouts[0] {
		if layouts[0][i] != layouts[1][i] {
			t.Fatal("layouts differ; the model should reflect the no-ASLR property")
		}
	}
}

// TestPerUserDedupIsolatesTenants verifies the §8.1.2 mitigation for
// dedup side channels: with PerUserDedup, identical content from
// different owners occupies separate pool pages.
func TestPerUserDedupIsolatesTenants(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	build := func(perUser bool) int64 {
		pool := mem.NewPool(mem.CXL, 0, lat)
		st := snapshot.NewStore(mem.NewBlockStore(pool), mmtemplate.NewRegistry())
		st.PerUserDedup = perUser
		a := prof(t, "JS").Snapshot()
		a.Owner = "alice"
		b := prof(t, "DH").Snapshot() // same language => same runtime/libs keys
		b.Owner = "bob"
		if _, err := st.Preprocess(a, snapshot.Placement{Hot: pool, HotFraction: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Preprocess(b, snapshot.Placement{Hot: pool, HotFraction: 1}); err != nil {
			t.Fatal(err)
		}
		return pool.Tracker().Used()
	}
	shared := build(false)
	isolated := build(true)
	if isolated <= shared {
		t.Fatalf("per-user dedup should cost memory: %d <= %d", isolated, shared)
	}
}
