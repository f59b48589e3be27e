package mmtemplate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// replay is the attach reference: it rebuilds the template's address
// space by replaying every map and setup through AddVMA and SetBacking,
// as Attach did on every call before templates were compiled.
func replay(t *Template, tracker *mem.Tracker, lat mem.LatencyModel) (*pagetable.AddressSpace, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	as := pagetable.NewAddressSpace(tracker, lat)
	for _, m := range t.maps {
		v, err := as.AddVMA(m.name, m.start, m.pages, m.prot, m.kind, nil, 0, pagetable.Unmapped)
		if err != nil {
			return nil, err
		}
		for _, s := range m.setups {
			state := pagetable.RemoteLazy
			if s.pool.Kind().ByteAddressable() {
				state = pagetable.RemoteDirect
			}
			if err := as.SetBacking(v, s.firstPage, s.pages, s.pool, s.base, state); err != nil {
				return nil, err
			}
		}
	}
	return as, nil
}

// sameSpace fails at the first difference between two address spaces:
// their VMAs field by field (runs, segments and per-state counts
// included), stats and local memory.
func sameSpace(t *testing.T, what string, got, want *pagetable.AddressSpace) {
	t.Helper()
	gv, wv := got.VMAs(), want.VMAs()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d VMAs, replay has %d", what, len(gv), len(wv))
	}
	for k := range gv {
		if !reflect.DeepEqual(*gv[k], *wv[k]) {
			t.Fatalf("%s: VMA %d\n copy: %+v\nreplay: %+v", what, k, *gv[k], *wv[k])
		}
	}
	if got.Stats() != want.Stats() || got.RSS() != want.RSS() {
		t.Fatalf("%s: stats %+v, rss %d; replay %+v, rss %d", what, got.Stats(), got.RSS(), want.Stats(), want.RSS())
	}
}

// attachEnv is what both sides of the differential share: the pools a
// template may point at, contended so RDMA fetches draw from the rng.
type attachEnv struct {
	lat   mem.LatencyModel
	pools []*mem.Pool // two CXL, two RDMA
}

func newAttachEnv() *attachEnv {
	lat := mem.DefaultLatencyModel()
	lat.RDMACliffProbability = 0.5
	e := &attachEnv{lat: lat, pools: []*mem.Pool{
		mem.NewPool(mem.CXL, 0, lat), mem.NewPool(mem.CXL, 0, lat),
		mem.NewPool(mem.RDMA, 0, lat), mem.NewPool(mem.RDMA, 0, lat),
	}}
	for _, p := range e.pools[2:] {
		for i := 0; i < lat.RDMAContentionThreshold; i++ {
			p.BeginFetch()
		}
	}
	return e
}

// code hands out the bytes of a fuzz input, then zeros.
type code []byte

func (c *code) next() int {
	if len(*c) == 0 {
		return 0
	}
	b := int((*c)[0])
	*c = (*c)[1:]
	return b
}

// change applies one template edit the program picks: a new map or a
// setup inside an existing one. Edits the template rejects change
// nothing; that is part of what the differential checks.
func change(tpl *Template, e *attachEnv, c *code, step int) {
	prots := []pagetable.Prot{pagetable.Read | pagetable.Write, pagetable.Read, pagetable.Read | pagetable.Exec}
	start := uint64(c.next()%8)<<20 + uint64(c.next()%16)*mem.PageSize
	if c.next()%3 == 0 {
		pages := int64(1 + c.next()%40)
		tpl.AddMap(fmt.Sprintf("m%d", step), start, pages*mem.PageSize,
			prots[c.next()%len(prots)], pagetable.MapKind(c.next()%2))
		return
	}
	tpl.mu.Lock()
	var m *tmap
	if len(tpl.maps) > 0 {
		m = tpl.maps[c.next()%len(tpl.maps)]
	}
	tpl.mu.Unlock()
	if m == nil {
		return
	}
	first, pages := c.next()%m.pages, 1+c.next()%m.pages
	tpl.SetupPT(m.start+uint64(first)*mem.PageSize, int64(pages)*mem.PageSize,
		uint64(c.next())*mem.PageSize, e.pools[c.next()%len(e.pools)])
}

// FuzzAttachDifferential checks attach-by-copy against the replay it
// replaced. A program builds a random template over CXL and RDMA pools;
// the first attach must equal a replay. Then one attached space and a
// replayed space take the same random calls (reads and writes, growth,
// backing, in-flight marks, promotion, forced residency, with the same
// rng and the same tracker capacity) and must stay equal after every
// call, while the template itself may change between calls. A second
// space attached before the calls, and a fresh attach after them, must
// still equal a replay of the template they were attached from. The seed
// corpus runs under plain go test.
func FuzzAttachDifferential(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 32+rng.Intn(768))
		rng.Read(prog)
		f.Add(seed, prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		runAttachDifferential(t, seed, prog)
	})
}

func runAttachDifferential(t *testing.T, seed int64, prog []byte) {
	c := code(prog)
	e := newAttachEnv()
	tpl := NewRegistry().Create("fuzz")
	for i, n := 0, 1+c.next()%12; i < n; i++ {
		change(tpl, e, &c, i)
	}
	var capacity int64
	if b := c.next(); b%2 == 1 {
		capacity = int64(8+b%96) * mem.PageSize // small enough to run out
	}
	attach := func(tracker *mem.Tracker) *pagetable.AddressSpace {
		t.Helper()
		as, _, err := tpl.Attach(tracker, e.lat, DefaultCostModel())
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		return as
	}
	mustReplay := func(tracker *mem.Tracker) *pagetable.AddressSpace {
		t.Helper()
		as, err := replay(tpl, tracker, e.lat)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return as
	}
	got, want := attach(mem.NewTracker("node", capacity)), mustReplay(mem.NewTracker("node", capacity))
	sameSpace(t, "first attach", got, want)
	second, secondWant := attach(mem.NewTracker("node", 0)), mustReplay(mem.NewTracker("node", 0))

	rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	cache := e.pools[1]
	for step := 0; len(c) > 0 && step < 400; step++ {
		op := c.next() % 8
		if op == 7 {
			change(tpl, e, &c, 100+step)
			sameSpace(t, fmt.Sprintf("step %d: attach after a template edit", step),
				attach(mem.NewTracker("node", 0)), mustReplay(mem.NewTracker("node", 0)))
			continue
		}
		if len(want.VMAs()) == 0 {
			continue
		}
		k := c.next() % len(want.VMAs())
		v, w := got.VMAs()[k], want.VMAs()[k]
		pages := w.Pages()
		first, count := c.next()%(pages+1), c.next()%(pages+2)
		var ra, rb pagetable.AccessResult
		var na, nb int
		var ea, eb error
		switch op {
		case 0:
			ra, ea = got.Access(rngA, v, first, count)
			rb, eb = want.Access(rngB, w, first, count)
		case 1:
			if pages < 256 {
				ea, eb = got.Grow(v, count%24), want.Grow(w, count%24)
			}
		case 2:
			pool, base, s := e.pools[c.next()%len(e.pools)], uint64(c.next())*mem.PageSize, pagetable.State(c.next()%4)
			ea = got.SetBacking(v, first, count, pool, base, s)
			eb = want.SetBacking(w, first, count, pool, base, s)
		case 3:
			readyAt := time.Duration(c.next()) * time.Microsecond
			na, ea = got.MarkInFlight(v, first, count, readyAt)
			nb, eb = want.MarkInFlight(w, first, count, readyAt)
		case 4:
			na, ea = got.PromoteRange(v, first, count, cache)
			nb, eb = want.PromoteRange(w, first, count, cache)
		case 5:
			ea, eb = got.MakeResident(v, first, count), want.MakeResident(w, first, count)
		case 6:
			ra, ea = got.Access(rngA, v, 0, first)
			rb, eb = want.Access(rngB, w, 0, first)
		}
		if ra != rb || na != nb || fmt.Sprint(ea) != fmt.Sprint(eb) {
			t.Fatalf("step %d (op %d): copy returned %+v, %d, %v; replay %+v, %d, %v", step, op, ra, na, ea, rb, nb, eb)
		}
		sameSpace(t, fmt.Sprintf("step %d (op %d)", step, op), got, want)
	}
	sameSpace(t, "second attach after the calls", second, secondWant)
	sameSpace(t, "fresh attach after the calls", attach(mem.NewTracker("node", 0)), mustReplay(mem.NewTracker("node", 0)))
}

// TestAttachAllocations pins what one attach allocates once the template
// is compiled: the address space, its VMA index, its VMAs, its runs and
// its segments, however many maps the template has.
func TestAttachAllocations(t *testing.T) {
	cxl, rdma := pools()
	lat, cost := mem.DefaultLatencyModel(), DefaultCostModel()
	tr := mem.NewTracker("node", 0)
	for _, maps := range []int{1, 4, 16, 64} {
		tpl := NewRegistry().Create("t")
		for i := 0; i < maps; i++ {
			start := uint64(i) << 24
			if err := tpl.AddMap(fmt.Sprintf("m%d", i), start, 64*mem.PageSize, pagetable.Read|pagetable.Write, pagetable.Anon); err != nil {
				t.Fatal(err)
			}
			if err := tpl.SetupPT(start, 24*mem.PageSize, 0, cxl); err != nil {
				t.Fatal(err)
			}
			if err := tpl.SetupPT(start+24*mem.PageSize, 40*mem.PageSize, 0, rdma); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := tpl.Attach(tr, lat, cost); err != nil { // compiles the template
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := tpl.Attach(tr, lat, cost); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 5 {
			t.Fatalf("%d maps: %v allocations per attach, want 5", maps, allocs)
		}
	}
}

// TestAttachRecompilesAfterChange checks that a map or a setup added
// after an attach shows up in the next attach, priced by the new
// metadata, and that a rejected setup changes nothing.
func TestAttachRecompilesAfterChange(t *testing.T) {
	cxl, rdma := pools()
	tpl := buildTemplate(t, NewRegistry(), cxl, rdma)
	tr, lat, cost := mem.NewTracker("node", 0), mem.DefaultLatencyModel(), DefaultCostModel()
	check := func(what string) *pagetable.AddressSpace {
		t.Helper()
		as, d, err := tpl.Attach(tr, lat, cost)
		if err != nil {
			t.Fatal(err)
		}
		want, err := replay(tpl, tr, lat)
		if err != nil {
			t.Fatal(err)
		}
		sameSpace(t, what, as, want)
		wantD := cost.AttachSyscall +
			time.Duration(float64(tpl.MetadataBytes())/cost.MetadataBandwidth*float64(time.Second)) +
			time.Duration(tpl.Maps())*cost.PerMapOverhead
		if d != wantD {
			t.Fatalf("%s: attach latency %v, want %v", what, d, wantD)
		}
		return as
	}
	check("first attach")
	if err := tpl.AddMap("stack", 0x90000000, 8*mem.PageSize, pagetable.Read|pagetable.Write, pagetable.Anon); err != nil {
		t.Fatal(err)
	}
	if as := check("attach after AddMap"); as.Region("stack") == nil {
		t.Fatal("attach after AddMap misses the new map")
	}
	if err := tpl.SetupPT(0x90000000, 8*mem.PageSize, 0, rdma); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetupPT(0x90000000, 8*mem.PageSize, 0, rdma); err == nil {
		t.Fatal("overlapping setup accepted")
	}
	if as := check("attach after SetupPT"); as.Region("stack").CountIn(pagetable.RemoteLazy) != 8 {
		t.Fatal("attach after SetupPT misses the new map's backing")
	}
}

// TestConcurrentAttachesOwnTheirCopies attaches one template from eight
// goroutines while another keeps adding maps, which drops the compiled
// image under them. Each goroutine splits and grows its own copies'
// runs, so under -race any storage two copies shared, or shared with the
// image, shows as a race. A final attach must equal a replay.
func TestConcurrentAttachesOwnTheirCopies(t *testing.T) {
	cxl, rdma := pools()
	tpl := buildTemplate(t, NewRegistry(), cxl, rdma)
	lat, cost := mem.DefaultLatencyModel(), DefaultCostModel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := mem.NewTracker("node", 0)
			for i := 0; i < 50; i++ {
				as, _, err := tpl.Attach(tr, lat, cost)
				if err != nil {
					t.Error(err)
					return
				}
				heap := as.Region("heap")
				// Calls that touch no pool: pools are not safe for
				// concurrent use, address spaces of one template are.
				if err := as.MakeResident(heap, 4, 20); err != nil {
					t.Error(err)
					return
				}
				if _, err := as.MarkInFlight(heap, 40, 10, time.Millisecond); err != nil {
					t.Error(err)
					return
				}
				if err := as.Grow(heap, 8); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		start := uint64(1)<<32 + uint64(i)<<24
		if err := tpl.AddMap(fmt.Sprintf("extra%d", i), start, 4*mem.PageSize, pagetable.Read, pagetable.Anon); err != nil {
			t.Fatal(err)
		}
		if err := tpl.SetupPT(start, 4*mem.PageSize, 0, rdma); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	as, _, err := tpl.Attach(mem.NewTracker("node", 0), lat, cost)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay(tpl, mem.NewTracker("node", 0), lat)
	if err != nil {
		t.Fatal(err)
	}
	sameSpace(t, "attach after the concurrent run", as, want)
}
