package mmtemplate

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

func pools() (cxl, rdma *mem.Pool) {
	lat := mem.DefaultLatencyModel()
	return mem.NewPool(mem.CXL, 0, lat), mem.NewPool(mem.RDMA, 0, lat)
}

// buildTemplate assembles the paper's Figure 12 example: a template with
// regions, some backed by CXL, some by RDMA.
func buildTemplate(t *testing.T, reg *Registry, cxl, rdma *mem.Pool) *Template {
	t.Helper()
	tpl := reg.Create("funcX/pid1")
	if err := tpl.AddMap("text", 0x400000, 16*mem.PageSize, pagetable.Read|pagetable.Exec, pagetable.File); err != nil {
		t.Fatal(err)
	}
	if err := tpl.AddMap("heap", 0x7FFF4000, 64*mem.PageSize, pagetable.Read|pagetable.Write, pagetable.Anon); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetupPT(0x400000, 16*mem.PageSize, 0x88000, cxl); err != nil {
		t.Fatal(err)
	}
	// Multi-layer heap: hot half on CXL, cold half on RDMA.
	if err := tpl.SetupPT(0x7FFF4000, 32*mem.PageSize, 0x100000, cxl); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetupPT(0x7FFF4000+32*mem.PageSize, 32*mem.PageSize, 0x200000, rdma); err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Create("a")
	b := reg.Create("b")
	if a.ID() == b.ID() {
		t.Fatal("duplicate template IDs")
	}
	if got, ok := reg.Get(a.ID()); !ok || got != a {
		t.Fatal("Get failed")
	}
	if reg.Len() != 2 {
		t.Fatalf("len = %d", reg.Len())
	}
	if err := reg.Destroy(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(a.ID()); ok {
		t.Fatal("destroyed template still visible")
	}
	if err := reg.Destroy(a.ID()); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

func TestAddMapValidation(t *testing.T) {
	reg := NewRegistry()
	tpl := reg.Create("t")
	if err := tpl.AddMap("a", 0, 4*mem.PageSize, pagetable.Read, pagetable.Anon); err != nil {
		t.Fatal(err)
	}
	if err := tpl.AddMap("b", 2*mem.PageSize, 4*mem.PageSize, pagetable.Read, pagetable.Anon); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if err := tpl.AddMap("c", 0x100000, 100, pagetable.Read, pagetable.Anon); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if err := tpl.AddMap("d", 0x100000, 0, pagetable.Read, pagetable.Anon); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestSetupPTValidation(t *testing.T) {
	reg := NewRegistry()
	cxl, _ := pools()
	tpl := reg.Create("t")
	tpl.AddMap("a", 0, 8*mem.PageSize, pagetable.Read, pagetable.Anon)
	if err := tpl.SetupPT(0, 4*mem.PageSize, 0, nil); err == nil {
		t.Fatal("nil pool accepted")
	}
	if err := tpl.SetupPT(0, 16*mem.PageSize, 0, cxl); err == nil {
		t.Fatal("range beyond map accepted")
	}
	if err := tpl.SetupPT(0x900000, 4*mem.PageSize, 0, cxl); err == nil {
		t.Fatal("range outside any map accepted")
	}
	if err := tpl.SetupPT(0, 4*mem.PageSize, 0, cxl); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetupPT(2*mem.PageSize, 4*mem.PageSize, 0, cxl); err == nil {
		t.Fatal("overlapping setup accepted")
	}
}

func TestAttachInstallsCorrectStates(t *testing.T) {
	reg := NewRegistry()
	cxl, rdma := pools()
	tpl := buildTemplate(t, reg, cxl, rdma)
	tr := mem.NewTracker("node", 0)
	as, lat, err := tpl.Attach(tr, mem.DefaultLatencyModel(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("attach was free")
	}
	if tr.Used() != 0 {
		t.Fatalf("attach allocated %d local bytes; must copy metadata only", tr.Used())
	}
	text := as.Region("text")
	if text.CountIn(pagetable.RemoteDirect) != 16 {
		t.Fatalf("text remote-direct pages = %d", text.CountIn(pagetable.RemoteDirect))
	}
	heap := as.Region("heap")
	if heap.CountIn(pagetable.RemoteDirect) != 32 || heap.CountIn(pagetable.RemoteLazy) != 32 {
		t.Fatalf("heap states: direct=%d lazy=%d", heap.CountIn(pagetable.RemoteDirect), heap.CountIn(pagetable.RemoteLazy))
	}
	if tpl.Attaches() != 1 {
		t.Fatalf("attaches = %d", tpl.Attaches())
	}
}

func TestAttachSharingAndCoWIsolation(t *testing.T) {
	reg := NewRegistry()
	cxl, rdma := pools()
	tpl := buildTemplate(t, reg, cxl, rdma)
	tr := mem.NewTracker("node", 0)
	lat := mem.DefaultLatencyModel()
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(1))

	as1, _, err := tpl.Attach(tr, lat, cost)
	if err != nil {
		t.Fatal(err)
	}
	as2, _, err := tpl.Attach(tr, lat, cost)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 1 writes its heap; instance 2 must be unaffected.
	h1 := as1.Region("heap")
	if _, err := as1.Access(rng, h1, 32, 32); err != nil {
		t.Fatal(err)
	}
	if h1.CountIn(pagetable.Local) != 32 {
		t.Fatalf("instance1 local pages = %d", h1.CountIn(pagetable.Local))
	}
	h2 := as2.Region("heap")
	if h2.CountIn(pagetable.RemoteDirect) != 32 || h2.CountIn(pagetable.Local) != 0 {
		t.Fatal("CoW write in one instance leaked into another")
	}
	// A third attach still sees pristine remote state.
	as3, _, _ := tpl.Attach(tr, lat, cost)
	if as3.Region("heap").CountIn(pagetable.RemoteDirect) != 32 {
		t.Fatal("template mutated by attached instance")
	}
	if tpl.Attaches() != 3 {
		t.Fatalf("attaches = %d", tpl.Attaches())
	}
}

func TestMetadataScalesWithImageNotContents(t *testing.T) {
	reg := NewRegistry()
	cxl, _ := pools()
	small := reg.Create("small")
	small.AddMap("a", 0, 16*mem.PageSize, pagetable.Read, pagetable.Anon)
	small.SetupPT(0, 16*mem.PageSize, 0, cxl)

	// ~95 MB image like JS.
	jsPages := int64(95<<20) / mem.PageSize
	big := reg.Create("js")
	big.AddMap("a", 0, jsPages*mem.PageSize, pagetable.Read, pagetable.Anon)
	big.SetupPT(0, jsPages*mem.PageSize, 0, cxl)

	if big.MetadataBytes() <= small.MetadataBytes() {
		t.Fatal("metadata should grow with pages")
	}
	// Paper: metadata < 400 KB for JS's ~95 MB image.
	if got := big.MetadataBytes(); got > 400<<10 {
		t.Fatalf("JS metadata = %d bytes, want < 400 KiB", got)
	}
	if big.MappedBytes() != jsPages*mem.PageSize {
		t.Fatalf("mapped bytes = %d", big.MappedBytes())
	}
	if big.RemoteBytes() != jsPages*mem.PageSize {
		t.Fatalf("remote bytes = %d", big.RemoteBytes())
	}
}

func TestAttachLatencyMuchLessThanCopy(t *testing.T) {
	reg := NewRegistry()
	cxl, _ := pools()
	imgBytes := int64(95 << 20)
	pages := imgBytes / mem.PageSize
	tpl := reg.Create("js")
	tpl.AddMap("a", 0, pages*mem.PageSize, pagetable.Read|pagetable.Write, pagetable.Anon)
	tpl.SetupPT(0, pages*mem.PageSize, 0, cxl)
	tr := mem.NewTracker("node", 0)
	lat := mem.DefaultLatencyModel()
	_, attachLat, err := tpl.Attach(tr, lat, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	copyLat := lat.CopyCost(imgBytes)
	if attachLat*10 > copyLat {
		t.Fatalf("attach (%v) should be >10x faster than full copy (%v)", attachLat, copyLat)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tpl := reg.Create("t")
				if _, ok := reg.Get(tpl.ID()); !ok {
					t.Error("created template not found")
					return
				}
				reg.Destroy(tpl.ID())
			}
		}()
	}
	wg.Wait()
	if reg.Len() != 0 {
		t.Fatalf("len = %d after balanced create/destroy", reg.Len())
	}
}

func TestDestroyedTemplateAttachesKeepWorking(t *testing.T) {
	reg := NewRegistry()
	cxl, rdma := pools()
	tpl := buildTemplate(t, reg, cxl, rdma)
	tr := mem.NewTracker("node", 0)
	as, _, err := tpl.Attach(tr, mem.DefaultLatencyModel(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	reg.Destroy(tpl.ID())
	rng := rand.New(rand.NewSource(1))
	if _, err := as.Access(rng, as.Region("text"), 16, 0); err != nil {
		t.Fatalf("attached address space broken by destroy: %v", err)
	}
}

// TestSharingFactorMatchesWalk drives random create, attach and destroy
// sequences, with attaches to destroyed templates and repeated destroys,
// and checks SharingFactor's running sum against a walk of the live
// templates after every step. It then runs the mix from 8 goroutines at
// once, so an attach racing a destroy of its template is counted once.
func TestSharingFactorMatchesWalk(t *testing.T) {
	lat, cost := mem.DefaultLatencyModel(), DefaultCostModel()
	rng := rand.New(rand.NewSource(1))
	reg := NewRegistry()
	tr := mem.NewTracker("node", 0)
	var all []*Template
	var attaches int64
	destroyedAttach := false
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 2 || len(all) == 0:
			all = append(all, reg.Create("t"))
		case op < 8:
			tpl := all[rng.Intn(len(all))]
			if _, ok := reg.Get(tpl.ID()); !ok {
				destroyedAttach = true
			}
			if _, _, err := tpl.Attach(tr, lat, cost); err != nil {
				t.Fatal(err)
			}
			attaches++
		default:
			reg.Destroy(all[rng.Intn(len(all))].ID()) // a repeat is an error and changes nothing
		}
		if got, want := reg.SharingFactor(), WalkSharingFactor(reg); got != want {
			t.Fatalf("step %d: SharingFactor = %v, walk %v", step, got, want)
		}
	}
	if !destroyedAttach || reg.Len() == 0 {
		t.Fatalf("sequence never attached to a destroyed template (%v) or left none live (%d)", destroyedAttach, reg.Len())
	}
	if reg.TotalAttaches() != attaches {
		t.Fatalf("total attaches = %d, want %d", reg.TotalAttaches(), attaches)
	}

	reg = NewRegistry()
	shared := make([]*Template, 16)
	for i := range shared {
		shared[i] = reg.Create("s")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tr := mem.NewTracker("node", 0)
			for j := 0; j < 200; j++ {
				tpl := shared[rng.Intn(len(shared))]
				if rng.Intn(8) == 0 {
					reg.Destroy(tpl.ID())
					continue
				}
				if _, _, err := tpl.Attach(tr, lat, cost); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got, want := reg.SharingFactor(), WalkSharingFactor(reg); got != want {
		t.Fatalf("after concurrent use: SharingFactor = %v, walk %v", got, want)
	}
}
