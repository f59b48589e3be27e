package mem

import (
	"math/rand"
	"testing"
	"time"
)

// TestBatchAmortizesRoundTrips: one 64-page batch must be far cheaper
// than 64 single-page demand fetches (the doorbell amortization), while
// still costing more than one page alone (streaming is not free).
func TestBatchAmortizesRoundTrips(t *testing.T) {
	lat := DefaultLatencyModel()
	batchPool := NewPool(RDMA, 0, lat)
	demandPool := NewPool(RDMA, 0, lat)
	rng := rand.New(rand.NewSource(1))
	batch := batchPool.BatchFetchLatency(rng, 64)
	var demand time.Duration
	for i := 0; i < 64; i++ {
		demand += demandPool.FetchLatency(rng, 1)
	}
	if batch >= demand/4 {
		t.Fatalf("batch %v not well under 64 demand fetches %v", batch, demand)
	}
	one := NewPool(RDMA, 0, lat).BatchFetchLatency(rng, 1)
	if batch <= one {
		t.Fatalf("64-page batch %v not costlier than 1-page %v", batch, one)
	}
	// Exactly one RTT plus streaming under no contention.
	want := lat.RDMAFetch + 63*lat.BatchPageStream
	uncontended := NewPool(RDMA, 0, lat).BatchFetchLatency(rand.New(rand.NewSource(2)), 64)
	if uncontended != want {
		t.Fatalf("uncontended batch = %v, want RTT+stream = %v", uncontended, want)
	}
}

// TestBatchCountersAndAccounting: batches increment both the shared
// fetch counters and the batch-specific ones.
func TestBatchCountersAndAccounting(t *testing.T) {
	p := NewPool(RDMA, 0, DefaultLatencyModel())
	rng := rand.New(rand.NewSource(1))
	if _, _, err := p.FetchBatch(rng, 10); err != nil {
		t.Fatal(err)
	}
	p.FetchLatency(rng, 3) // demand fetch: no batch counters
	if p.Fetches() != 2 || p.PagesFetched() != 13 {
		t.Fatalf("fetches=%d pages=%d, want 2/13", p.Fetches(), p.PagesFetched())
	}
	if p.BatchFetches() != 1 || p.BatchPages() != 10 {
		t.Fatalf("batchFetches=%d batchPages=%d, want 1/10", p.BatchFetches(), p.BatchPages())
	}
}

// TestFetchBatchMatchesLatencyWithoutAgent: with no fault agent,
// FetchBatch returns exactly BatchFetchLatency's price and consumes the
// same rng draws — the bit-identity contract.
func TestFetchBatchMatchesLatencyWithoutAgent(t *testing.T) {
	lat := DefaultLatencyModel()
	a, b := NewPool(RDMA, 0, lat), NewPool(RDMA, 0, lat)
	ra, rb := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a.BeginFetch()
		b.BeginFetch()
	}
	for i := 0; i < 20; i++ {
		d, out, err := a.FetchBatch(ra, 32)
		if err != nil || out.Retries != 0 {
			t.Fatalf("clean batch fetch: %v %+v", err, out)
		}
		if want := b.BatchFetchLatency(rb, 32); d != want {
			t.Fatalf("iter %d: FetchBatch %v != BatchFetchLatency %v", i, d, want)
		}
	}
	if ra.Int63() != rb.Int63() {
		t.Fatal("rng streams diverged")
	}
}

// TestPromotionCacheLRU: capacity-bounded insertion evicts the least
// recently used run; lookups refresh recency; oversized runs are
// rejected outright.
func TestPromotionCacheLRU(t *testing.T) {
	c := NewPromotionCache(10*PageSize, DefaultLatencyModel())
	if !c.Promote("a", 4) || !c.Promote("b", 4) {
		t.Fatal("initial promotions refused")
	}
	if !c.Lookup("a") { // refresh a; b is now LRU
		t.Fatal("lookup miss on resident run")
	}
	if !c.Promote("c", 4) { // needs eviction of b
		t.Fatal("promotion with eviction refused")
	}
	if c.Contains("b") || !c.Contains("a") || !c.Contains("c") {
		t.Fatalf("LRU evicted wrong run: a=%v b=%v c=%v", c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	if c.Evictions() != 1 || c.Promotions() != 3 || c.Hits() != 1 {
		t.Fatalf("counters: evict=%d promo=%d hits=%d", c.Evictions(), c.Promotions(), c.Hits())
	}
	if used := c.Pool().Tracker().Used(); used != 8*PageSize {
		t.Fatalf("cache bytes = %d, want 8 pages", used)
	}
	if c.Promote("huge", 11) {
		t.Fatal("run larger than the whole cache accepted")
	}
	if c.Rejected() != 1 {
		t.Fatalf("rejected = %d", c.Rejected())
	}
	// Re-promoting a resident run is a touch, not a second allocation.
	if !c.Promote("a", 4) || c.Pool().Tracker().Used() != 8*PageSize {
		t.Fatal("resident re-promotion re-allocated")
	}
}

// TestContendedDemandAndBatchShareOneRoundTrip prices demand and batched
// fetches on loaded RDMA and tmpfs pools: a demand fetch of n pages pays
// n round trips, a batch one round trip plus (n-1) BatchPageStream. Both
// draw the RDMA cliff from the same rng draw, so same-seed pools count the
// same cliffs; tmpfs draws nothing.
func TestContendedDemandAndBatchShareOneRoundTrip(t *testing.T) {
	lat := DefaultLatencyModel()
	const load, n, fetches = 30, 8, 200
	stream := (n - 1) * lat.BatchPageStream
	for _, c := range []struct {
		kind      PoolKind
		rtt, tail time.Duration // one round trip at load, and one past the cliff
	}{
		{RDMA, 9600 * time.Nanosecond, 48000 * time.Nanosecond}, // 6 µs × (1 + 0.02×30), ×5 past the cliff
		{Tmpfs, 19600 * time.Nanosecond, 0},                     // 7 µs × (1 + 0.06×30)
	} {
		demand, batch := NewPool(c.kind, 0, lat), NewPool(c.kind, 0, lat)
		for i := 0; i < load; i++ {
			demand.BeginFetch()
			batch.BeginFetch()
		}
		rd, rb, draws := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		var cliffs int64
		for i := 0; i < fetches; i++ {
			rtt := c.rtt
			if c.kind == RDMA && draws.Float64() < lat.RDMACliffProbability {
				rtt = c.tail
				cliffs++
			}
			if got := demand.FetchLatency(rd, n); got != n*rtt {
				t.Fatalf("%s fetch %d: demand %v, want %d × %v", c.kind, i, got, n, rtt)
			}
			if got := batch.BatchFetchLatency(rb, n); got != rtt+stream {
				t.Fatalf("%s fetch %d: batch %v, want %v + %v", c.kind, i, got, rtt, stream)
			}
		}
		if c.kind == RDMA && cliffs == 0 {
			t.Fatalf("rdma: no cliff in %d contended fetches", fetches)
		}
		if demand.Cliffs() != cliffs || batch.Cliffs() != cliffs {
			t.Fatalf("%s cliffs: demand %d batch %d, want %d", c.kind, demand.Cliffs(), batch.Cliffs(), cliffs)
		}
		if next := draws.Float64(); rd.Float64() != next || rb.Float64() != next {
			t.Fatalf("%s: demand and batch pricing drew a different number of values", c.kind)
		}
	}
}
