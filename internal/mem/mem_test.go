package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPagesFor(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.bytes); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestTrackerAllocFree(t *testing.T) {
	tr := NewTracker("ram", 100)
	if err := tr.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := tr.Alloc(50); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	} else {
		var noMem *ErrNoMemory
		if !errors.As(err, &noMem) {
			t.Fatalf("error type %T, want *ErrNoMemory", err)
		}
		if noMem.Free != 40 {
			t.Fatalf("reported free = %d, want 40", noMem.Free)
		}
	}
	tr.Free(20)
	if tr.Used() != 40 || tr.Peak() != 60 {
		t.Fatalf("used=%d peak=%d, want 40/60", tr.Used(), tr.Peak())
	}
	tr.ResetPeak()
	if tr.Peak() != 40 {
		t.Fatalf("peak after reset = %d", tr.Peak())
	}
}

func TestTrackerUnlimited(t *testing.T) {
	tr := NewTracker("x", 0)
	if err := tr.Alloc(1 << 50); err != nil {
		t.Fatalf("unlimited tracker refused alloc: %v", err)
	}
	if tr.Available() < 1<<61 {
		t.Fatalf("available = %d", tr.Available())
	}
}

func TestTrackerOverFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	NewTracker("x", 0).Free(1)
}

// Property: any sequence of allocs/frees keeps used == sum(live) and
// peak >= used.
func TestTrackerInvariantProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tr := NewTracker("p", 0)
		var live int64
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				tr.MustAlloc(n)
				live += n
			} else {
				n = -n
				if n > live {
					n = live
				}
				tr.Free(n)
				live -= n
			}
			if tr.Used() != live || tr.Peak() < tr.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolKindStrings(t *testing.T) {
	if Local.String() != "local" || CXL.String() != "cxl" || RDMA.String() != "rdma" || NAS.String() != "nas" {
		t.Fatal("bad pool kind strings")
	}
	if !CXL.ByteAddressable() || RDMA.ByteAddressable() {
		t.Fatal("byte-addressability wrong")
	}
}

func TestRDMAFetchContentionInflates(t *testing.T) {
	lat := DefaultLatencyModel()
	lat.RDMACliffProbability = 0 // isolate linear inflation
	p := NewPool(RDMA, 0, lat)
	rng := rand.New(rand.NewSource(1))
	base := p.FetchLatency(rng, 10)
	for i := 0; i < 50; i++ {
		p.BeginFetch()
	}
	loaded := p.FetchLatency(rng, 10)
	if loaded <= base {
		t.Fatalf("no contention inflation: base=%v loaded=%v", base, loaded)
	}
	want := time.Duration(float64(base) * (1 + lat.RDMAContentionFactor*50))
	if diff := loaded - want; diff < -time.Nanosecond || diff > time.Nanosecond {
		t.Fatalf("loaded=%v want=%v", loaded, want)
	}
	for i := 0; i < 50; i++ {
		p.EndFetch()
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
}

func TestRDMACliffOnlyUnderContention(t *testing.T) {
	lat := DefaultLatencyModel()
	lat.RDMACliffProbability = 1 // always cliff when eligible
	p := NewPool(RDMA, 0, lat)
	rng := rand.New(rand.NewSource(1))
	p.FetchLatency(rng, 1)
	if p.Cliffs() != 0 {
		t.Fatal("cliff hit with no contention")
	}
	for i := 0; i < lat.RDMAContentionThreshold; i++ {
		p.BeginFetch()
	}
	p.FetchLatency(rng, 1)
	if p.Cliffs() != 1 {
		t.Fatal("cliff not hit at threshold")
	}
}

// A cliff is counted and multiplies the contended per-page latency by
// RDMACliffFactor.
func TestRDMACliffCounted(t *testing.T) {
	lat := DefaultLatencyModel()
	lat.RDMACliffProbability = 1
	p := NewPool(RDMA, 0, lat)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < lat.RDMAContentionThreshold; i++ {
		p.BeginFetch()
	}
	got := p.FetchLatency(rng, 1)
	if p.Cliffs() != 1 {
		t.Fatalf("cliffs = %d, want 1", p.Cliffs())
	}
	contended := float64(lat.RDMAFetch) * (1 + lat.RDMAContentionFactor*float64(lat.RDMAContentionThreshold))
	want := time.Duration(contended * lat.RDMACliffFactor)
	if d := got - want; d < -time.Nanosecond || d > time.Nanosecond {
		t.Fatalf("cliff fetch = %v, want %v", got, want)
	}
}

func TestCXLStableAndDirect(t *testing.T) {
	lat := DefaultLatencyModel()
	p := NewPool(CXL, 0, lat)
	rng := rand.New(rand.NewSource(1))
	a := p.FetchLatency(rng, 100)
	for i := 0; i < 100; i++ {
		p.BeginFetch()
	}
	b := p.FetchLatency(rng, 100)
	if a != b {
		t.Fatalf("CXL latency not load-independent: %v vs %v", a, b)
	}
	if got := p.DirectAccessCost(10); got != 10*lat.CXLDirectAccess {
		t.Fatalf("direct access cost = %v", got)
	}
	rp := NewPool(RDMA, 0, lat)
	if rp.DirectAccessCost(10) != 0 {
		t.Fatal("RDMA should not be directly addressable")
	}
}

func TestCopyCost(t *testing.T) {
	lat := DefaultLatencyModel()
	got := lat.CopyCost(1 << 30)
	if got != time.Second {
		t.Fatalf("1 GiB at 1 GiB/s = %v, want 1s", got)
	}
	if lat.CopyCost(0) != 0 || lat.CopyCost(-1) != 0 {
		t.Fatal("non-positive copy should cost 0")
	}
	// 60 MB should exceed 55ms (paper: >60ms at ~1GB/s).
	if got := lat.CopyCost(60 << 20); got < 55*time.Millisecond {
		t.Fatalf("60MB copy = %v, expected tens of ms", got)
	}
}

func TestBlockStoreDedup(t *testing.T) {
	p := NewPool(CXL, 100*PageSize, DefaultLatencyModel())
	s := NewBlockStore(p)
	b1, dedup, err := s.Put("python-runtime", 10)
	if err != nil || dedup {
		t.Fatalf("first put: %v dedup=%v", err, dedup)
	}
	b2, dedup, err := s.Put("python-runtime", 10)
	if err != nil || !dedup {
		t.Fatalf("second put: %v dedup=%v", err, dedup)
	}
	if b1 != b2 || b1.Refs() != 2 {
		t.Fatalf("dedup returned different block or wrong refs (%d)", b1.Refs())
	}
	if got := p.Tracker().Used(); got != 10*PageSize {
		t.Fatalf("pool used %d, want one copy (%d)", got, 10*PageSize)
	}
	if s.LogicalBytes() != 2*10*PageSize {
		t.Fatalf("logical bytes = %d", s.LogicalBytes())
	}
	if s.DedupRatio() != 0.5 {
		t.Fatalf("dedup ratio = %v", s.DedupRatio())
	}
}

func TestBlockStoreRelease(t *testing.T) {
	p := NewPool(CXL, 100*PageSize, DefaultLatencyModel())
	s := NewBlockStore(p)
	s.Put("a", 4)
	s.Put("a", 4)
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if s.Get("a") == nil {
		t.Fatal("block freed while referenced")
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if s.Get("a") != nil {
		t.Fatal("block not freed at zero refs")
	}
	if p.Tracker().Used() != 0 {
		t.Fatalf("pool used = %d after full release", p.Tracker().Used())
	}
	if err := s.Release("a"); err == nil {
		t.Fatal("release of unknown block succeeded")
	}
}

func TestBlockStoreSizeMismatch(t *testing.T) {
	s := NewBlockStore(NewPool(CXL, 0, DefaultLatencyModel()))
	s.Put("k", 4)
	if _, _, err := s.Put("k", 5); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestBlockStoreCapacityExhaustion(t *testing.T) {
	p := NewPool(CXL, 5*PageSize, DefaultLatencyModel())
	s := NewBlockStore(p)
	if _, _, err := s.Put("a", 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("b", 2); err == nil {
		t.Fatal("over-capacity put succeeded")
	}
}

// Property: offsets of live blocks never overlap.
func TestBlockStoreNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewBlockStore(NewPool(CXL, 0, DefaultLatencyModel()))
		for i, sz := range sizes {
			pages := int(sz%32) + 1
			if _, _, err := s.Put(string(rune('a'+i%26))+string(rune('0'+i/26)), pages); err != nil {
				return false
			}
		}
		blocks := s.Blocks()
		for i := 1; i < len(blocks); i++ {
			prev := blocks[i-1]
			if blocks[i].Offset < prev.Offset+uint64(prev.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
