package main

// Per-layer benchmarks: one entry point per stack layer, called from
// outside through its public API with Table-4 region sizes and read/write
// fractions. Run them with
//
//	cd bench && go test -run '^$' -bench . -benchmem

import (
	"io"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/prefetch"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Sinks keep the compiler from discarding benchmarked calls.
var (
	sinkString string
	sinkAccess pagetable.AccessResult
	sinkDur    time.Duration
)

// benchProfile is the Table-4 function the single-function benchmarks
// use: JSON de/serialization, a mid-sized 95 MiB image that reads half of
// its pages and writes a tenth.
func benchProfile(b *testing.B) workload.FunctionProfile {
	prof, err := workload.ProfileByName("JS")
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

// benchImage preprocesses prof into a consolidated image whose every page
// lives on a pool of the given kind, as TrEnv-CXL (direct access) and
// TrEnv-RDMA (lazy fetch) place it.
func benchImage(b *testing.B, prof workload.FunctionProfile, kind mem.PoolKind) *snapshot.Image {
	pool := mem.NewPool(kind, 0, mem.DefaultLatencyModel())
	store := snapshot.NewStore(mem.NewBlockStore(pool), mmtemplate.NewRegistry())
	img, err := store.Preprocess(prof.Snapshot(), snapshot.Placement{Hot: pool, HotFraction: 1})
	if err != nil {
		b.Fatal(err)
	}
	return img
}

func restore(b *testing.B, img *snapshot.Image) *snapshot.Restored {
	res, err := snapshot.RestoreTemplate(img, mem.NewTracker("node", 0), mem.DefaultLatencyModel(),
		mmtemplate.DefaultCostModel(), snapshot.DefaultCosts())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkPagetableAccess times one invocation's memory activity, every
// region's reads and writes, on a freshly attached template: direct reads
// and CoW writes on CXL, demand faults and fetches on RDMA.
func BenchmarkPagetableAccess(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind mem.PoolKind
	}{{"cxl-template", mem.CXL}, {"rdma-lazy", mem.RDMA}} {
		b.Run(tc.name, func(b *testing.B) {
			prof := benchProfile(b)
			img := benchImage(b, prof, tc.kind)
			accesses := prof.Accesses()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				res := restore(b, img)
				b.StartTimer()
				for _, a := range accesses {
					as, v := res.Region(a.Region)
					r, err := as.Access(rng, v, a.ReadPages, a.WritePages)
					if err != nil {
						b.Fatal(err)
					}
					sinkAccess = r
				}
			}
		})
	}
}

// BenchmarkMemPoolFetch prices one demand fetch of a prefetch batch's
// worth of pages on the RDMA pool, and one doorbell-batched fetch.
func BenchmarkMemPoolFetch(b *testing.B) {
	pool := mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel())
	rng := rand.New(rand.NewSource(1))
	b.Run("fetch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, _, err := pool.Fetch(rng, prefetch.DefaultBatchPages)
			if err != nil {
				b.Fatal(err)
			}
			sinkDur = d
		}
	})
	b.Run("fetch-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, _, err := pool.FetchBatch(rng, prefetch.DefaultBatchPages)
			if err != nil {
				b.Fatal(err)
			}
			sinkDur = d
		}
	})
}

// BenchmarkSnapshotRestoreTemplate times TrEnv's restore: attaching a
// CXL image's mm-templates to a new address space, then releasing it.
func BenchmarkSnapshotRestoreTemplate(b *testing.B) {
	img := benchImage(b, benchProfile(b), mem.CXL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := restore(b, img)
		sinkDur = res.Latency
		res.ReleaseAll()
	}
}

// BenchmarkSandboxRepurpose hands one pooled sandbox from function to
// function inside a simulated process: repurpose, then clean for the pool.
func BenchmarkSandboxRepurpose(b *testing.B) {
	names := functionNames()
	f := sandbox.NewFactory(sandbox.DefaultCostModel())
	sb := f.CreateWarm()
	eng := sim.NewEngine(1)
	eng.Go("repurpose", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d, err := f.Repurpose(p, sb, names[i%len(names)])
			if err != nil {
				b.Error(err)
				return
			}
			sinkDur = d + f.Clean(p, sb)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkObsTraceIDFor derives one invocation's trace ID, as every
// invocation does whether or not a tracer is attached.
func BenchmarkObsTraceIDFor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkString = obs.TraceIDFor("n0", "JS", strconv.Itoa(i))
	}
}

// BenchmarkObsTracerRecord records invocation-shaped span trees (root,
// sandbox, restore and exec phases) into a full tracer ring.
func BenchmarkObsTracerRecord(b *testing.B) {
	trees := make([]*obs.Span, 1024)
	for i := range trees {
		root := obs.NewSpan("invoke/JS", 0, 100*time.Millisecond)
		root.SetAttr("function", "JS").SetAttr("node", "n0").SetAttr("path", "repurpose")
		st := root.Child("startup", 0, 10*time.Millisecond)
		st.Child("sandbox", 0, 2*time.Millisecond)
		st.Child("restore", 2*time.Millisecond, 10*time.Millisecond)
		root.Child("exec", 10*time.Millisecond, 100*time.Millisecond)
		root.AssignIDs(obs.TraceIDFor("n0", "JS", strconv.Itoa(i)))
		trees[i] = root
	}
	tracer := obs.NewTracer(len(trees) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer.Record(trees[i%len(trees)])
	}
}

// BenchmarkObsWritePrometheus renders the full metric surface of a node
// that served a scaled-down W1 trace.
func BenchmarkObsWritePrometheus(b *testing.B) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.SLOTarget = 2 * time.Second
	pl := faas.New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			b.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	w1 := workload.DefaultW1(functionNames())
	w1.Duration = scaled(w1.Duration, 0.05)
	w1.BurstGap = scaled(w1.BurstGap, 0.05)
	pl.RunTrace(workload.W1Bursty(rand.New(rand.NewSource(1)), w1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEngine runs the event loop: timer callbacks, and a
// simulated process sleeping, which switches goroutines per event.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("after", func(b *testing.B) {
		eng := sim.NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				eng.After(time.Microsecond, tick)
			}
		}
		eng.After(0, tick)
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
	b.Run("sleep", func(b *testing.B) {
		eng := sim.NewEngine(1)
		eng.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
}

// BenchmarkShardGroupRunUntil bounces one message between two shards on
// two workers: every window delivers one cross-shard Send.
func BenchmarkShardGroupRunUntil(b *testing.B) {
	const lookahead = 200 * time.Microsecond
	g := sim.NewShardGroup(1, 2, lookahead)
	g.SetWorkers(2)
	var bounce func(from int) func()
	bounce = func(from int) func() {
		return func() { g.Send(from, 1-from, lookahead, bounce(1-from)) }
	}
	g.Shard(0).After(0, bounce(0))
	b.ReportAllocs()
	b.ResetTimer()
	g.RunUntil(time.Duration(b.N) * lookahead)
	b.StopTimer()
	g.Shutdown()
}
