package mem

import (
	"math/rand"
	"time"
)

// BatchFetchLatency prices one doorbell-style batched fetch of pages
// contiguous remote pages: the initiator posts a single work request
// covering the whole run, so the batch pays one round trip — priced
// like a single-page FetchLatency, contention and the tail cliff
// included — plus BatchPageStream per additional page while the
// payload drains the link. This is the amortization that makes
// working-set prefetch worthwhile: N demand faults cost N round trips,
// one batch costs one.
//
// Byte-addressable pools (CXL) have no doorbell to ring; a batch there
// is the same bulk copy FetchLatency charges. Server-backed RDMA pools
// use the analytic model for batches (the queue-pair path prices
// per-page reads, not doorbell bursts).
//
// The caller sleeps the returned duration in simulated time and holds
// BeginFetch/EndFetch around it, exactly as with FetchLatency.
func (p *Pool) BatchFetchLatency(rng *rand.Rand, pages int) time.Duration {
	if pages <= 0 {
		return 0
	}
	p.fetches++
	p.pagesFetched += int64(pages)
	p.batchFetches++
	p.batchPages += int64(pages)
	stream := time.Duration(pages-1) * p.lat.BatchPageStream
	switch p.kind {
	case CXL:
		return time.Duration(pages) * p.lat.CXLDirectAccess
	case RDMA, Tmpfs:
		return time.Duration(p.roundTrip(rng)) + stream
	case NAS:
		return p.lat.NASFetch + stream
	default:
		return 0
	}
}

// FetchBatch is BatchFetchLatency made fault-aware: the whole batch is
// one unit of work against the pool's fault agent, so a failed batch
// retries and backs off as a whole under the pool's RetryPolicy rather
// than splintering into per-page recoveries. With no agent attached it
// consumes exactly the same rng draws as BatchFetchLatency, keeping
// fault-free runs bit-identical.
func (p *Pool) FetchBatch(rng *rand.Rand, pages int) (time.Duration, FetchOutcome, error) {
	return p.fetchWith(rng, pages, p.BatchFetchLatency)
}
