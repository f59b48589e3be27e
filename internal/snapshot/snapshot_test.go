package snapshot

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
)

func testSnap(name string, memMB int64, threads int) *Snapshot {
	return &Snapshot{
		Function: name,
		Procs: []ProcessImage{{
			Name:    "main",
			Threads: threads,
			FDs:     20,
			Regions: []Region{
				{Name: "runtime", Bytes: memMB << 20 / 2, Prot: pagetable.Read | pagetable.Exec, Kind: pagetable.File, ContentKey: "python3.10"},
				{Name: "libs", Bytes: memMB << 20 / 4, Prot: pagetable.Read, Kind: pagetable.File, ContentKey: "common-libs"},
				{Name: "heap", Bytes: memMB << 20 / 4, Prot: pagetable.Read | pagetable.Write, Kind: pagetable.Anon},
			},
		}},
	}
}

func newStore() (*Store, *mem.Pool) {
	lat := mem.DefaultLatencyModel()
	pool := mem.NewPool(mem.CXL, 0, lat)
	return NewStore(mem.NewBlockStore(pool), mmtemplate.NewRegistry()), pool
}

func TestPreprocessDeduplicatesSharedRegions(t *testing.T) {
	st, pool := newStore()
	a := testSnap("fnA", 64, 4)
	b := testSnap("fnB", 64, 4)
	place := Placement{Hot: pool, HotFraction: 1}
	if _, err := st.Preprocess(a, place); err != nil {
		t.Fatal(err)
	}
	afterA := pool.Tracker().Used()
	if _, err := st.Preprocess(b, place); err != nil {
		t.Fatal(err)
	}
	afterB := pool.Tracker().Used()
	// Only fnB's private heap should be new: runtime+libs dedup.
	heapBytes := int64(mem.PagesFor(16<<20)) * mem.PageSize
	if got := afterB - afterA; got != heapBytes {
		t.Fatalf("second function added %d bytes, want only its heap (%d)", got, heapBytes)
	}
	if st.Blocks().DedupRatio() == 0 {
		t.Fatal("no dedup recorded")
	}
}

func TestPreprocessBuildsTemplates(t *testing.T) {
	st, pool := newStore()
	snap := testSnap("fn", 64, 4)
	img, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Templates) != 1 {
		t.Fatalf("templates = %d", len(img.Templates))
	}
	tpl := img.Templates[0]
	if tpl.Maps() != 3 {
		t.Fatalf("maps = %d", tpl.Maps())
	}
	if tpl.RemoteBytes() != snap.MemBytes() {
		t.Fatalf("remote bytes %d != image %d", tpl.RemoteBytes(), snap.MemBytes())
	}
	if img.MetadataBytes <= 0 || img.MetadataBytes > 1<<20 {
		t.Fatalf("metadata = %d, want (0, 1MB]", img.MetadataBytes)
	}
	if st.Image("fn") != img {
		t.Fatal("image not indexed")
	}
	if _, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1}); err == nil {
		t.Fatal("double preprocess accepted")
	}
}

func TestPreprocessHotColdSplit(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	cxl := mem.NewPool(mem.CXL, 0, lat)
	rdma := mem.NewPool(mem.RDMA, 0, lat)
	st := NewStore(mem.NewBlockStore(cxl), mmtemplate.NewRegistry())
	snap := testSnap("fn", 64, 4)
	img, err := st.Preprocess(snap, Placement{Hot: cxl, Cold: rdma, HotFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if cxl.Tracker().Used() == 0 || rdma.Tracker().Used() == 0 {
		t.Fatalf("split not applied: cxl=%d rdma=%d", cxl.Tracker().Used(), rdma.Tracker().Used())
	}
	tr := mem.NewTracker("node", 0)
	res, err := RestoreTemplate(img, tr, lat, mmtemplate.DefaultCostModel(), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	_, v := res.Region("heap")
	if v.CountIn(pagetable.RemoteDirect) == 0 || v.CountIn(pagetable.RemoteLazy) == 0 {
		t.Fatalf("heap not split: direct=%d lazy=%d", v.CountIn(pagetable.RemoteDirect), v.CountIn(pagetable.RemoteLazy))
	}
}

func TestPlacementValidation(t *testing.T) {
	_, pool := newStore()
	if err := (Placement{}).Validate(); err == nil {
		t.Fatal("empty placement validated")
	}
	if err := (Placement{Hot: pool, HotFraction: 0.5}).Validate(); err == nil {
		t.Fatal("partial placement without cold pool validated")
	}
	if err := (Placement{Hot: pool, HotFraction: 2}).Validate(); err == nil {
		t.Fatal("fraction > 1 validated")
	}
	if err := (Placement{Hot: pool, HotFraction: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReleasesBlocks(t *testing.T) {
	st, pool := newStore()
	snap := testSnap("fn", 32, 2)
	if _, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("fn"); err != nil {
		t.Fatal(err)
	}
	if pool.Tracker().Used() != 0 {
		t.Fatalf("pool holds %d bytes after remove", pool.Tracker().Used())
	}
	if st.Registry().Len() != 0 {
		t.Fatal("templates leaked")
	}
	if err := st.Remove("fn"); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestRestoreFullCopyResidentAndCostly(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 60, 14)
	tr := mem.NewTracker("node", 0)
	res, err := RestoreFullCopy(snap, tr, lat, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if res.RSS() != snap.MemBytes() {
		t.Fatalf("rss = %d, want full image %d", res.RSS(), snap.MemBytes())
	}
	// Paper: a 60 MB image takes over 60 ms to copy.
	if res.Latency < lat.CopyCost(snap.MemBytes()) {
		t.Fatalf("latency %v below pure copy cost", res.Latency)
	}
	// All pages resident: execution faults nothing.
	rng := rand.New(rand.NewSource(1))
	as, v := res.Region("heap")
	ar, err := as.Access(rng, v, v.Pages(), v.Pages()/2)
	if err != nil {
		t.Fatal(err)
	}
	if ar.MajorFaults+ar.MinorFaults != 0 {
		t.Fatalf("full-copy restore left faults: %+v", ar)
	}
	res.ReleaseAll()
	if tr.Used() != 0 {
		t.Fatal("release leaked")
	}
}

func tmpfsPool() *mem.Pool { return mem.NewPool(mem.Tmpfs, 0, mem.DefaultLatencyModel()) }

func wsFor(snap *Snapshot, frac float64) map[string]int {
	ws := make(map[string]int)
	for _, r := range snap.Procs[0].Regions {
		ws[r.Name] = int(float64(r.Pages()) * frac)
	}
	return ws
}

func TestRestoreLazyReapSemantics(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 64, 14)
	tr := mem.NewTracker("node", 0)
	tp := tmpfsPool()
	ws := wsFor(snap, 0.5)
	rng := rand.New(rand.NewSource(1))
	res, err := RestoreLazy(snap, tr, tp, ReapConfig(ws), lat, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	// REAP eagerly restores coverage*ws; much less than the full image.
	if res.RSS() == 0 || res.RSS() >= snap.MemBytes() {
		t.Fatalf("rss = %d, want partial residency (image %d)", res.RSS(), snap.MemBytes())
	}
	full, _ := RestoreFullCopy(snap, mem.NewTracker("n2", 0), lat, DefaultCosts())
	if res.Latency >= full.Latency {
		t.Fatalf("lazy restore (%v) not faster than full copy (%v)", res.Latency, full.Latency)
	}
	// Touching the whole working set faults the uncovered tail via uffd.
	as, v := res.Region("heap")
	ar, err := as.Access(rng, v, ws["heap"], 0)
	if err != nil {
		t.Fatal(err)
	}
	if ar.MajorFaults == 0 {
		t.Fatal("REAP coverage misses should fault at execution")
	}
	if tp.Fetches() == 0 {
		t.Fatal("uffd faults should hit the tmpfs pool")
	}
}

func TestRestoreFaaSnapFasterStartupThanReap(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 128, 14)
	ws := wsFor(snap, 0.6)
	reap, err := RestoreLazy(snap, mem.NewTracker("a", 0), tmpfsPool(), ReapConfig(ws), lat, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	faasnap, err := RestoreLazy(snap, mem.NewTracker("b", 0), tmpfsPool(), FaaSnapConfig(ws), lat, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if faasnap.Latency >= reap.Latency {
		t.Fatalf("FaaSnap startup (%v) not faster than REAP (%v)", faasnap.Latency, reap.Latency)
	}
}

func TestRestoreLazyMissRatioGrowsWithLoad(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 64, 4)
	ws := wsFor(snap, 0.6)
	quiet := tmpfsPool()
	r1, _ := RestoreLazy(snap, mem.NewTracker("a", 0), quiet, FaaSnapConfig(ws), lat, DefaultCosts())
	busy := tmpfsPool()
	for i := 0; i < 30; i++ {
		busy.BeginFetch()
	}
	r2, _ := RestoreLazy(snap, mem.NewTracker("b", 0), busy, FaaSnapConfig(ws), lat, DefaultCosts())
	if r2.RSS() >= r1.RSS() {
		t.Fatalf("under load async prefetch should deliver less: quiet=%d busy=%d", r1.RSS(), r2.RSS())
	}
}

func TestRestoreLazyRejectsWrongPool(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 8, 1)
	cxl := mem.NewPool(mem.CXL, 0, lat)
	if _, err := RestoreLazy(snap, mem.NewTracker("a", 0), cxl, ReapConfig(nil), lat, DefaultCosts()); err == nil {
		t.Fatal("lazy restore accepted non-tmpfs pool")
	}
}

func TestRestoreTemplateIsMetadataOnly(t *testing.T) {
	st, pool := newStore()
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 855, 141) // IR-sized
	img, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := mem.NewTracker("node", 0)
	res, err := RestoreTemplate(img, tr, lat, mmtemplate.DefaultCostModel(), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if res.RSS() != 0 {
		t.Fatalf("template restore allocated %d local bytes", res.RSS())
	}
	full, _ := RestoreFullCopy(snap, mem.NewTracker("n2", 0), lat, DefaultCosts())
	if res.Latency*10 > full.Latency {
		t.Fatalf("template restore (%v) should be >>10x faster than full copy (%v)", res.Latency, full.Latency)
	}
	// IR-class startup: paper reports 18 ms including sandbox work;
	// the pure restore path must come in well under that.
	if res.Latency > 15_000_000 { // 15ms
		t.Fatalf("template restore = %v, want < 15ms", res.Latency)
	}
}

// TestProcsPhasePricesThreadsAndFDs pins the procs restore phase: every
// restore engine charges threads × ThreadClone plus descriptors ×
// FDRestore, summed over the snapshot's processes.
func TestProcsPhasePricesThreadsAndFDs(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	costs := DefaultCosts()
	heap := func(mb int64) []Region {
		return []Region{{Name: "heap", Bytes: mb << 20, Prot: pagetable.Read | pagetable.Write, Kind: pagetable.Anon}}
	}
	snap := &Snapshot{Function: "fn", Procs: []ProcessImage{
		{Name: "main", Threads: 14, FDs: 20, Regions: heap(4)},
		{Name: "worker", Threads: 3, FDs: 7, Regions: heap(1)},
	}}
	want := (14+3)*costs.ThreadClone + (20+7)*costs.FDRestore
	restores := []struct {
		name    string
		restore func() (*Restored, error)
	}{
		{"full-copy", func() (*Restored, error) {
			return RestoreFullCopy(snap, mem.NewTracker("n", 0), lat, costs)
		}},
		{"lazy", func() (*Restored, error) {
			return RestoreLazy(snap, mem.NewTracker("n", 0), tmpfsPool(), ReapConfig(nil), lat, costs)
		}},
		{"template", func() (*Restored, error) {
			st, pool := newStore()
			img, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1})
			if err != nil {
				return nil, err
			}
			return RestoreTemplate(img, mem.NewTracker("n", 0), lat, mmtemplate.DefaultCostModel(), costs)
		}},
	}
	for _, tc := range restores {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.restore()
			if err != nil {
				t.Fatal(err)
			}
			if res.BD.Procs != want {
				t.Fatalf("procs phase = %v, want %v", res.BD.Procs, want)
			}
		})
	}
}

func TestRestoredRegionLookup(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	snap := testSnap("fn", 8, 1)
	res, err := RestoreFullCopy(snap, mem.NewTracker("n", 0), lat, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if as, v := res.Region("heap"); as == nil || v == nil {
		t.Fatal("heap not found")
	}
	if as, v := res.Region("nope"); as != nil || v != nil {
		t.Fatal("phantom region found")
	}
}

func TestSnapshotAccessors(t *testing.T) {
	snap := testSnap("fn", 64, 7)
	if snap.Threads() != 7 {
		t.Fatalf("threads = %d", snap.Threads())
	}
	want := int64(mem.PagesFor(32<<20)+mem.PagesFor(16<<20)+mem.PagesFor(16<<20)) * mem.PageSize
	if snap.MemBytes() != want {
		t.Fatalf("mem bytes = %d, want %d", snap.MemBytes(), want)
	}
}
