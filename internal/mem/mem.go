// Package mem models the memory substrate TrEnv runs on: node-local DRAM,
// and disaggregated memory pools (CXL, RDMA, NAS) holding deduplicated,
// consolidated snapshot images.
//
// The model carries what the paper's evaluation depends on:
//
//   - CXL is byte-addressable: read-only pages are accessed directly with
//     no page fault and no local allocation, at a small fixed extra latency
//     per access (the paper measures 641 ns remote access latency).
//   - RDMA is message-based: any first access to a remote page raises a
//     major fault and fetches a 4 KB block (~6 µs), allocating a local
//     page. Under load RDMA latency inflates and exhibits the P99 cliff
//     the paper cites (up to ~5x during bursts).
//   - Images are deduplicated content-addressed blocks with machine-
//     independent offsets, so identical regions across functions and
//     nodes occupy pool memory once.
package mem

import (
	"fmt"
	"math/rand"
	"time"
)

// PageSize is the (simulated) base page size in bytes.
const PageSize = 4096

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	return int((bytes + PageSize - 1) / PageSize)
}

// PoolKind identifies a memory backend tier.
type PoolKind int

const (
	// Local is node-local DRAM.
	Local PoolKind = iota
	// CXL is a byte-addressable shared CXL memory pool (multi-headed device).
	CXL
	// RDMA is a remote memory pool reached via one-sided reads.
	RDMA
	// NAS is network-attached storage, the coldest tier.
	NAS
	// Tmpfs is a DRAM/CXL-backed tmpfs holding snapshot files, served to
	// restoring processes through a userfaultfd handler (the REAP and
	// FaaSnap restore path). It is not byte-addressable by the guest:
	// every touch of a non-resident page takes a fault plus a userspace
	// round trip, and the single handler daemon contends under load.
	Tmpfs
)

// String returns the backend name.
func (k PoolKind) String() string {
	switch k {
	case Local:
		return "local"
	case CXL:
		return "cxl"
	case RDMA:
		return "rdma"
	case NAS:
		return "nas"
	case Tmpfs:
		return "tmpfs"
	}
	return fmt.Sprintf("PoolKind(%d)", int(k))
}

// ByteAddressable reports whether the CPU can issue loads directly against
// this backend (no page fault needed for reads).
func (k PoolKind) ByteAddressable() bool { return k == Local || k == CXL }

// LatencyModel holds the timing constants for memory operations. The
// defaults mirror the paper's testbed (§9.1) and standard kernel costs.
type LatencyModel struct {
	// CXLDirectAccess is the extra latency charged per resident-on-CXL
	// page that an invocation actively uses, relative to local DRAM. It
	// aggregates the per-cacheline gap (641 ns vs ~100 ns) over a page's
	// worth of hot accesses.
	CXLDirectAccess time.Duration
	// RDMAFetch is the base one-sided read latency for one 4 KB page.
	RDMAFetch time.Duration
	// RDMAContentionFactor scales fetch latency per outstanding request:
	// lat = RDMAFetch * (1 + factor*outstanding).
	RDMAContentionFactor float64
	// RDMACliffProbability is the chance, per aggregated fetch batch under
	// contention, of hitting the tail-latency cliff.
	RDMACliffProbability float64
	// RDMACliffFactor multiplies latency when the cliff is hit (~5x).
	RDMACliffFactor float64
	// RDMAContentionThreshold is the outstanding-request count above which
	// the cliff can occur.
	RDMAContentionThreshold int
	// NASFetch is the per-page read latency from network storage.
	NASFetch time.Duration
	// TmpfsFetch is the per-page cost of a userfaultfd-served page from a
	// tmpfs-resident snapshot (fault + wake + copy), per REAP/FaaSnap.
	TmpfsFetch time.Duration
	// TmpfsContentionFactor inflates TmpfsFetch per outstanding batch:
	// the uffd handler daemon serializes under concurrent restores.
	TmpfsContentionFactor float64
	// FaultOverhead is the kernel software cost of taking one page fault
	// (context switch + handler), excluding any data movement.
	FaultOverhead time.Duration
	// MinorFaultOverhead is the cost of a minor fault (page already
	// resident, e.g. userfaultfd wake or CoW trap entry).
	MinorFaultOverhead time.Duration
	// CopyBandwidth is the bulk restore bandwidth (CRIU image parsing +
	// copy); the paper observes ~1 GB/s effective (60 MB image => >60 ms).
	CopyBandwidth float64 // bytes per second
	// CowPageCopy is the raw in-kernel copy of one 4 KB page on a CoW
	// fault (no image parsing involved).
	CowPageCopy time.Duration
	// BatchPageStream is the per-additional-page streaming cost inside a
	// doorbell-style batched fetch: the first page pays the kind's full
	// round trip (contention and cliff included), each further page only
	// drains the link behind it. ~500 ns is a 4 KB page at ~65 Gb/s of
	// effective RDMA READ goodput.
	BatchPageStream time.Duration
}

// DefaultLatencyModel returns the constants used across the evaluation.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		CXLDirectAccess:         550 * time.Nanosecond,
		RDMAFetch:               6 * time.Microsecond,
		RDMAContentionFactor:    0.02,
		RDMACliffProbability:    0.08,
		RDMACliffFactor:         5.0,
		RDMAContentionThreshold: 24,
		NASFetch:                60 * time.Microsecond,
		TmpfsFetch:              7 * time.Microsecond,
		TmpfsContentionFactor:   0.06,
		FaultOverhead:           2500 * time.Nanosecond,
		MinorFaultOverhead:      1200 * time.Nanosecond,
		CopyBandwidth:           1 << 30, // 1 GiB/s
		CowPageCopy:             800 * time.Nanosecond,
		BatchPageStream:         500 * time.Nanosecond,
	}
}

// CopyCost returns the time to copy n bytes at CopyBandwidth.
func (m LatencyModel) CopyCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.CopyBandwidth * float64(time.Second))
}

// Tracker accounts bytes against a capacity (node DRAM, a pool, a cache).
// A zero capacity means unlimited.
type Tracker struct {
	name     string
	capacity int64
	used     int64
	peak     int64
}

// NewTracker returns a tracker; capacity 0 means unlimited.
func NewTracker(name string, capacity int64) *Tracker {
	return &Tracker{name: name, capacity: capacity}
}

// Name returns the tracker's label.
func (t *Tracker) Name() string { return t.name }

// Capacity returns the byte capacity (0 = unlimited).
func (t *Tracker) Capacity() int64 { return t.capacity }

// Used returns current bytes in use.
func (t *Tracker) Used() int64 { return t.used }

// Peak returns the high-water mark.
func (t *Tracker) Peak() int64 { return t.peak }

// Available returns remaining bytes, or a very large number if unlimited.
func (t *Tracker) Available() int64 {
	if t.capacity == 0 {
		return 1 << 62
	}
	return t.capacity - t.used
}

// ErrNoMemory is returned when an allocation exceeds capacity.
type ErrNoMemory struct {
	Tracker string
	Need    int64
	Free    int64
}

func (e *ErrNoMemory) Error() string {
	return fmt.Sprintf("mem: %s: need %d bytes, %d free", e.Tracker, e.Need, e.Free)
}

// Alloc reserves n bytes, failing if it would exceed capacity.
func (t *Tracker) Alloc(n int64) error {
	if n < 0 {
		panic("mem: negative alloc")
	}
	if t.capacity > 0 && t.used+n > t.capacity {
		return &ErrNoMemory{Tracker: t.name, Need: n, Free: t.capacity - t.used}
	}
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	return nil
}

// MustAlloc reserves n bytes ignoring capacity (used for accounting-only
// trackers that must never fail, e.g. measuring host page cache).
func (t *Tracker) MustAlloc(n int64) {
	if n < 0 {
		panic("mem: negative alloc")
	}
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
}

// Free releases n bytes.
func (t *Tracker) Free(n int64) {
	if n < 0 || n > t.used {
		panic(fmt.Sprintf("mem: %s: free %d of %d used", t.name, n, t.used))
	}
	t.used -= n
}

// ResetPeak sets the high-water mark to the current usage.
func (t *Tracker) ResetPeak() { t.peak = t.used }

// Pool is a disaggregated memory pool of a given kind holding consolidated
// snapshot images. Reads are served according to the kind's access model.
type Pool struct {
	kind         PoolKind
	lat          LatencyModel
	tracker      *Tracker
	outstanding  int // in-flight fetch batches (RDMA contention)
	fetches      int64
	cliffs       int64
	pagesFetched int64
	pagesDirect  int64
	batchFetches int64 // doorbell-style batched fetches (prefetch path)
	batchPages   int64 // pages moved by batched fetches

	// home names the node (or memory server) hosting the pool, for
	// cross-node span attribution ("" = unplaced).
	home string

	// Optional fault injection (SetFaultAgent): every fetch consults the
	// agent at the current virtual time and failures are retried under
	// the pool's RetryPolicy. clock supplies virtual time so the fault
	// schedule stays deterministic (never wall clock).
	faults FaultAgent
	clock  func() time.Duration
	retry  RetryPolicy

	retries    int64 // fetch attempts beyond the first
	faultFails int64 // attempts failed by an injected fault
	exhausted  int64 // fetches that gave up after MaxAttempts
}

// SetHome labels the pool with the node hosting it.
func (p *Pool) SetHome(node string) { p.home = node }

// Home returns the hosting node label ("" = unplaced).
func (p *Pool) Home() string { return p.home }

// NewPool creates a pool. capacity 0 means unlimited.
func NewPool(kind PoolKind, capacity int64, lat LatencyModel) *Pool {
	return &Pool{kind: kind, lat: lat, tracker: NewTracker("pool/"+kind.String(), capacity)}
}

// Kind returns the pool's backend kind.
func (p *Pool) Kind() PoolKind { return p.kind }

// Latency returns the pool's latency model.
func (p *Pool) Latency() LatencyModel { return p.lat }

// Tracker returns the capacity accounting for the pool.
func (p *Pool) Tracker() *Tracker { return p.tracker }

// Fetches returns the number of fetch batches served (RDMA/NAS).
func (p *Pool) Fetches() int64 { return p.fetches }

// Cliffs returns how many fetch batches hit the tail-latency cliff.
func (p *Pool) Cliffs() int64 { return p.cliffs }

// PagesFetched returns the total pages moved by fetch batches — the
// pool's message-based traffic (RDMA/NAS/Tmpfs, or CXL bulk copies).
func (p *Pool) PagesFetched() int64 { return p.pagesFetched }

// BatchFetches returns doorbell-style batched fetches served (the
// prefetch path; a subset of Fetches).
func (p *Pool) BatchFetches() int64 { return p.batchFetches }

// BatchPages returns pages moved by batched fetches (a subset of
// PagesFetched).
func (p *Pool) BatchPages() int64 { return p.batchPages }

// BeginFetch marks a fetch batch in flight (contention accounting).
func (p *Pool) BeginFetch() { p.outstanding++ }

// EndFetch marks a fetch batch complete.
func (p *Pool) EndFetch() {
	if p.outstanding == 0 {
		panic("mem: EndFetch without BeginFetch")
	}
	p.outstanding--
}

// Outstanding returns in-flight fetch batches.
func (p *Pool) Outstanding() int { return p.outstanding }

// FetchLatency returns the latency to fetch pages remote pages in one
// batch, sampling contention effects from rng. The caller is responsible
// for sleeping this long in simulated time between BeginFetch/EndFetch.
func (p *Pool) FetchLatency(rng *rand.Rand, pages int) time.Duration {
	if pages <= 0 {
		return 0
	}
	p.fetches++
	p.pagesFetched += int64(pages)
	switch p.kind {
	case CXL:
		// CXL never "fetches": direct access. Callers should use
		// DirectAccessCost; treat a fetch as a bulk copy at stable latency.
		return time.Duration(pages) * p.lat.CXLDirectAccess
	case RDMA, Tmpfs:
		return time.Duration(p.roundTrip(rng) * float64(pages))
	case NAS:
		return time.Duration(pages) * p.lat.NASFetch
	default:
		return 0
	}
}

// roundTrip prices one fetch round trip on an RDMA or tmpfs pool,
// inflated by the fetches outstanding; on a loaded RDMA pool it samples
// the tail cliff from rng. Demand and batched fetches both pay it.
func (p *Pool) roundTrip(rng *rand.Rand) float64 {
	if p.kind == Tmpfs {
		return float64(p.lat.TmpfsFetch) * (1 + p.lat.TmpfsContentionFactor*float64(p.outstanding))
	}
	per := float64(p.lat.RDMAFetch) * (1 + p.lat.RDMAContentionFactor*float64(p.outstanding))
	if p.outstanding >= p.lat.RDMAContentionThreshold && rng.Float64() < p.lat.RDMACliffProbability {
		per *= p.lat.RDMACliffFactor
		p.cliffs++
	}
	return per
}

// DirectAccessCost returns the extra execution latency for actively using
// pages resident on this pool via direct loads (CXL only). Other kinds
// return 0 because they are never directly addressed.
func (p *Pool) DirectAccessCost(pages int) time.Duration {
	if p.kind != CXL || pages <= 0 {
		return 0
	}
	p.pagesDirect += int64(pages)
	return time.Duration(pages) * p.lat.CXLDirectAccess
}
