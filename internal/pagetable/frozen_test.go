package pagetable

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/mem"
)

// frozenSource builds the kind of space a template attach replays: two
// VMAs split across CXL and RDMA segments, one VMA with no backing.
func frozenSource(t *testing.T, tr *mem.Tracker, cxl, rdma *mem.Pool) *AddressSpace {
	t.Helper()
	as := NewAddressSpace(tr, mem.DefaultLatencyModel())
	text, err := as.AddVMA("text", 0x400000, 16, Read|Exec, File, nil, 0, Unmapped)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := as.AddVMA("heap", 0x800000, 64, Read|Write, Anon, nil, 0, Unmapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.AddVMA("stack", 0x100000, 8, Read|Write, Anon, nil, 0, Unmapped); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		v            *VMA
		first, pages int
		pool         *mem.Pool
		s            State
	}{
		{text, 0, 16, cxl, RemoteDirect},
		{heap, 32, 32, rdma, RemoteLazy},
		{heap, 0, 24, cxl, RemoteDirect},
	} {
		if err := as.SetBacking(b.v, b.first, b.pages, b.pool, 0, b.s); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// sameSpace fails unless got's VMAs equal want's field by field, with the
// same run and segment capacity, and the two hold the same stats and
// local memory.
func sameSpace(t *testing.T, got, want *AddressSpace) {
	t.Helper()
	if len(got.vmas) != len(want.vmas) {
		t.Fatalf("%d VMAs, want %d", len(got.vmas), len(want.vmas))
	}
	for k, v := range got.vmas {
		w := want.vmas[k]
		if !reflect.DeepEqual(*v, *w) {
			t.Fatalf("VMA %d:\n got %+v\nwant %+v", k, *v, *w)
		}
		if cap(v.runs) != cap(w.runs) || cap(v.segs) != cap(w.segs) || (v.segs == nil) != (w.segs == nil) {
			t.Fatalf("VMA %s: run cap %d, seg cap %d (nil %v); want %d, %d (nil %v)", v.Name,
				cap(v.runs), cap(v.segs), v.segs == nil, cap(w.runs), cap(w.segs), w.segs == nil)
		}
	}
	if got.stats != want.stats || got.rss != want.rss {
		t.Fatalf("stats %+v and %d local bytes, want %+v and %d", got.stats, got.rss, want.stats, want.rss)
	}
}

// mutate runs the calls an invocation and a careless caller make on an
// attached space: in-flight marks that split the heap's runs past their
// spare capacity, reads and writes, growth, new backing and promotion.
func mutate(t *testing.T, as *AddressSpace, rng *rand.Rand, cxl, rdma *mem.Pool) {
	t.Helper()
	heap, stack := as.Region("heap"), as.Region("stack")
	for first := 1; first < 60; first += 7 {
		if _, err := as.MarkInFlight(heap, first, 2, time.Duration(first)*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := as.Access(rng, heap, 64, 20); err != nil {
		t.Fatal(err)
	}
	if err := as.Grow(stack, 4); err != nil {
		t.Fatal(err)
	}
	if err := as.SetBacking(stack, 0, 4, rdma, 0, RemoteLazy); err != nil {
		t.Fatal(err)
	}
	if err := as.SetBacking(stack, 6, 2, cxl, 0, RemoteDirect); err != nil {
		t.Fatal(err)
	}
	if _, err := as.PromoteRange(stack, 0, 12, cxl); err != nil {
		t.Fatal(err)
	}
	if err := as.Grow(as.Region("text"), 1); err != nil {
		t.Fatal(err)
	}
}

// TestCopyMatchesSourceAndOwnsItsStorage checks that a copy of a frozen
// space equals the space it was frozen from, capacities included, and
// stays equal to it under the same calls; and that those calls on one
// copy leave a second copy and later copies untouched.
func TestCopyMatchesSourceAndOwnsItsStorage(t *testing.T) {
	cxl, rdma := cxlPool(), rdmaPool()
	lat := mem.DefaultLatencyModel()
	src := frozenSource(t, mem.NewTracker("src", 0), cxl, rdma)
	f := Freeze(src)
	tr := mem.NewTracker("node", 0)
	a, b := f.Copy(tr, lat), f.Copy(tr, lat)
	sameSpace(t, a, src)
	if a.local != tr || a.lat != lat {
		t.Fatal("copy does not charge the caller's tracker at the caller's latency model")
	}
	mutate(t, a, rand.New(rand.NewSource(1)), cxl, rdma)
	mutate(t, src, rand.New(rand.NewSource(1)), cxl, rdma)
	sameSpace(t, a, src)
	pristine := frozenSource(t, nil, cxl, rdma)
	sameSpace(t, b, pristine)
	sameSpace(t, f.Copy(tr, lat), pristine)
}

func TestFreezeRejectsLocalMemory(t *testing.T) {
	as, _ := newAS(t, 0)
	if _, err := as.AddVMA("heap", 0, 4, Read|Write, Anon, nil, 0, Local); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Freeze copied a space holding local pages")
		}
	}()
	Freeze(as)
}

// TestFetchPoolOrderIsFixed puts six RDMA pools behind one VMA, two more
// than a tally holds inline, under contention and with a 50% cliff chance,
// so every pool's fetch draws from rng and each pool backs a different
// page count. Same-seed accesses must cost the same on every run: the
// pools must be fetched in one order.
func TestFetchPoolOrderIsFixed(t *testing.T) {
	lat := mem.DefaultLatencyModel()
	lat.RDMACliffProbability = 0.5
	pools := make([]*mem.Pool, 6)
	for i := range pools {
		pools[i] = mem.NewPool(mem.RDMA, 0, lat)
		for j := 0; j < lat.RDMAContentionThreshold; j++ {
			pools[i].BeginFetch()
		}
	}
	var want time.Duration
	for run := 0; run < 30; run++ {
		as := NewAddressSpace(mem.NewTracker("node", 0), lat)
		v, err := as.AddVMA("heap", 0, 21, Read|Write, Anon, nil, 0, Unmapped)
		if err != nil {
			t.Fatal(err)
		}
		first := 0
		for i, p := range pools {
			if err := as.SetBacking(v, first, i+1, p, 0, RemoteLazy); err != nil {
				t.Fatal(err)
			}
			first += i + 1
		}
		res, err := as.Access(rand.New(rand.NewSource(1)), v, 21, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.MajorFaults != 21 {
			t.Fatalf("run %d: %d major faults, want 21", run, res.MajorFaults)
		}
		if run == 0 {
			want = res.Latency
		} else if res.Latency != want {
			t.Fatalf("run %d: same-seed access took %v, run 0 took %v", run, res.Latency, want)
		}
	}
}
