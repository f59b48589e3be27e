package prefetch

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

const heapPages = 200

// restored builds one restored instance: a "heap" region whose pages all
// sit behind invalid PTEs on pool, as a TrEnv-RDMA template attach
// leaves them.
func restored(t testing.TB, pool *mem.Pool) *snapshot.Restored {
	t.Helper()
	return restoredPages(t, pool, heapPages)
}

// restoredPages is restored with a heap of the given size.
func restoredPages(t testing.TB, pool *mem.Pool, pages int) *snapshot.Restored {
	t.Helper()
	as := pagetable.NewAddressSpace(mem.NewTracker("node", 0), mem.DefaultLatencyModel())
	if _, err := as.AddVMA("heap", 0, pages, pagetable.Read|pagetable.Write, pagetable.Anon, pool, 0, pagetable.RemoteLazy); err != nil {
		t.Fatal(err)
	}
	return &snapshot.Restored{Snapshot: &snapshot.Snapshot{Function: "fn"}, Spaces: []*pagetable.AddressSpace{as}}
}

// inProc runs fn as a simulated process and drains the engine.
func inProc(fn func(p *sim.Proc)) {
	eng := sim.NewEngine(1)
	eng.Go("test", fn)
	eng.Run()
}

// record has a first instance record a working set of its first n heap
// pages, then seals the log.
func record(t *testing.T, p *sim.Proc, pf *Prefetcher, log *pagetable.WorkingSetLog, pool *mem.Pool, n int) {
	t.Helper()
	res := restored(t, pool)
	if sum := pf.OnRestore(p, log, res); sum == nil || !sum.Recording {
		t.Fatalf("first restore: summary %+v, want a recording pass", sum)
	}
	as, v := res.Region("heap")
	if _, err := as.Access(p.Rand(), v, n, 0); err != nil {
		t.Fatal(err)
	}
	log.Seal()
}

func TestFirstRestoreRecordsSecondRunsUnassisted(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	pf := New(nil, Config{})
	log := &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		first := restored(t, pool)
		if sum := pf.OnRestore(p, log, first); sum == nil || !sum.Recording {
			t.Fatalf("first restore: summary %+v, want a recording pass", sum)
		}
		second := restored(t, pool)
		if sum := pf.OnRestore(p, log, second); sum != nil {
			t.Fatalf("concurrent restore: summary %+v, want nil (unassisted)", sum)
		}
		// Only the recording instance writes the log.
		as, v := first.Region("heap")
		if _, err := as.Access(p.Rand(), v, 10, 0); err != nil {
			t.Fatal(err)
		}
		as, v = second.Region("heap")
		if _, err := as.Access(p.Rand(), v, 30, 0); err != nil {
			t.Fatal(err)
		}
	})
	want := []pagetable.WSFetch{{Region: "heap", First: 0, Pages: 10, Pool: "rdma"}}
	if got := log.Entries(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("log = %+v, want %+v", got, want)
	}
}

func TestSealedLogReplaysInBatches(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	pf := New(nil, Config{})
	log := &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		record(t, p, pf, log, pool, 150)
		res := restored(t, pool)
		batches := pool.BatchFetches()
		sum := pf.OnRestore(p, log, res)
		// ceil(150/64) = 3 doorbell batches cover the recorded run.
		if sum == nil || sum.Batches != 3 || sum.Pages != 150 || sum.Pool != "rdma" || sum.Err != nil {
			t.Fatalf("replay summary %+v, want 3 batches of 150 rdma pages", sum)
		}
		if n := pool.BatchFetches() - batches; n != 3 {
			t.Fatalf("pool saw %d batch fetches, want 3", n)
		}
		if sum.Latency <= 0 {
			t.Fatalf("replay latency %v", sum.Latency)
		}
		_, v := res.Region("heap")
		if v.CountIn(pagetable.Local) != 150 || v.CountIn(pagetable.RemoteLazy) != heapPages-150 {
			t.Fatalf("after replay: local %d, lazy %d", v.CountIn(pagetable.Local), v.CountIn(pagetable.RemoteLazy))
		}
	})
}

func TestReplaySkipsLocalPages(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	pf := New(nil, Config{})
	log := &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		record(t, p, pf, log, pool, 150)
		res := restored(t, pool)
		as, v := res.Region("heap")
		// The first batch's pages and 6 of the second's are already local.
		if err := as.MakeResident(v, 0, 70); err != nil {
			t.Fatal(err)
		}
		pages := pool.BatchPages()
		sum := pf.OnRestore(p, log, res)
		if sum == nil || sum.Batches != 2 || sum.Pages != 80 {
			t.Fatalf("replay summary %+v, want 2 batches of 80 pages", sum)
		}
		if n := pool.BatchPages() - pages; n != 80 {
			t.Fatalf("pool fetched %d pages in batches, want 80", n)
		}
	})
}

func TestHotRunIsPromotedAndNotBatched(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	cache := mem.NewPromotionCache(0, mem.DefaultLatencyModel())
	pf := New(cache, Config{PromoteAfter: 2})
	log := &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		record(t, p, pf, log, pool, 100)
		if sum := pf.OnRestore(p, log, restored(t, pool)); sum.Batches != 2 || sum.PromotedPages != 0 {
			t.Fatalf("replay 1: %+v, want 2 batches and no promotion", sum)
		}
		for replay := 2; replay <= 3; replay++ {
			res := restored(t, pool)
			sum := pf.OnRestore(p, log, res)
			if sum.Batches != 0 || sum.Pages != 0 || sum.PromotedPages != 100 {
				t.Fatalf("replay %d: %+v, want 100 promoted pages and no batch", replay, sum)
			}
			_, v := res.Region("heap")
			if v.PoolAt(0) != cache.Pool() || v.CountRange(0, 100, pagetable.RemoteDirect) != 100 {
				t.Fatalf("replay %d: run not redirected at the cache", replay)
			}
		}
	})
}

// switchAgent fails every fetch attempt while on, counting them.
type switchAgent struct {
	on    bool
	calls int
}

func (a *switchAgent) FetchVerdict(pool string, _ time.Duration) mem.FetchVerdict {
	if !a.on {
		return mem.FetchVerdict{}
	}
	a.calls++
	return mem.FetchVerdict{Err: &mem.ErrFlakyFetch{Pool: pool}}
}

func (a *switchAgent) PoolDown(string, time.Duration) (string, bool) { return "", false }

func TestBatchFailureStopsReplay(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	agent := &switchAgent{}
	pf := New(nil, Config{})
	log := &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		pool.SetFaultAgent(agent, p.Engine().Now)
		record(t, p, pf, log, pool, 150)
		agent.on = true
		res := restored(t, pool)
		sum := pf.OnRestore(p, log, res)
		var failed *mem.ErrFetchFailed
		if sum == nil || !errors.As(sum.Err, &failed) || sum.Batches != 0 {
			t.Fatalf("replay summary %+v, want no batch and a fetch failure", sum)
		}
		// Only the first batch was tried; the rest is left to demand faults.
		if want := pool.RetryPolicyInEffect().MaxAttempts; agent.calls != want {
			t.Fatalf("fault agent consulted %d times, want %d (one batch)", agent.calls, want)
		}
		if _, v := res.Region("heap"); v.CountIn(pagetable.RemoteLazy) != heapPages {
			t.Fatalf("failed replay marked pages: %d lazy of %d", v.CountIn(pagetable.RemoteLazy), heapPages)
		}
	})
}

// TestNewLogStartsPromotionAfresh replays two sealed logs of the same
// function, as a redeploy leaves them: the second version's runs must
// not inherit the first's replay counts or promoted cache entries.
func TestNewLogStartsPromotionAfresh(t *testing.T) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	cache := mem.NewPromotionCache(0, mem.DefaultLatencyModel())
	pf := New(cache, Config{PromoteAfter: 2})
	v1, v2 := &pagetable.WorkingSetLog{}, &pagetable.WorkingSetLog{}
	inProc(func(p *sim.Proc) {
		record(t, p, pf, v1, pool, 100)
		for replay := 1; replay <= 3; replay++ {
			pf.OnRestore(p, v1, restored(t, pool))
		}
		if cache.Runs() != 1 {
			t.Fatalf("version 1 promoted %d runs, want 1", cache.Runs())
		}
		record(t, p, pf, v2, pool, 100)
		hits := cache.Hits()
		sum := pf.OnRestore(p, v2, restored(t, pool))
		if sum.PromotedPages != 0 || sum.Batches != 2 || cache.Hits() != hits {
			t.Fatalf("version 2's first replay: %+v, %d cache hits; want 2 batches, nothing promoted, no hit", sum, cache.Hits()-hits)
		}
		if sum := pf.OnRestore(p, v2, restored(t, pool)); sum.PromotedPages != 100 || cache.Runs() != 2 {
			t.Fatalf("version 2's second replay: %+v with %d cached runs, want 100 promoted pages in a run of its own", sum, cache.Runs())
		}
	})
}

// BenchmarkReplay restores a fresh instance outside the timer and
// replays a sealed 16-run working set into it: as doorbell batches
// (batches), or as hits on runs already in the promotion cache
// (promoted). One op is one OnRestore.
func BenchmarkReplay(b *testing.B) {
	const runs, runPages = 16, 96
	for _, bc := range []struct {
		name  string
		cache *mem.PromotionCache
	}{
		{"batches", nil},
		{"promoted", mem.NewPromotionCache(0, mem.DefaultLatencyModel())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
			pf := New(bc.cache, Config{PromoteAfter: 1})
			log := &pagetable.WorkingSetLog{}
			pages := 2 * runs * runPages
			inProc(func(p *sim.Proc) {
				res := restoredPages(b, pool, pages)
				pf.OnRestore(p, log, res)
				as, v := res.Region("heap")
				for r := 0; r < runs; r++ { // every other stretch, so runs do not merge
					if _, err := as.Prefetch(p.Rand(), v, 2*r*runPages, runPages); err != nil {
						b.Fatal(err)
					}
				}
				log.Seal()
				pf.OnRestore(p, log, restoredPages(b, pool, pages)) // compiles the plan
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					res := restoredPages(b, pool, pages)
					b.StartTimer()
					if sum := pf.OnRestore(p, log, res); sum == nil || sum.Err != nil {
						b.Fatalf("replay: %+v", sum)
					}
				}
			})
		})
	}
}
