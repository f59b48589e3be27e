package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/workload"
)

// shardedRun captures one sharded-fleet run's deterministic totals.
// Every field is invariant of the worker count, which is the property
// the experiment exists to demonstrate.
type shardedRun struct {
	events      int64
	invocations int64
	spillovers  int64
	windows     int64
	messages    int64
	simTime     time.Duration
	spanDigest  uint64
}

// runSharded drives the Azure-like trace through a racks×nodesPerRack
// sharded fleet at the given worker parallelism.
func runSharded(o Options, racks, nodesPerRack, workers int) shardedRun {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = o.Seed
	cfg.KeepAlive = o.dur(10 * time.Minute)
	f, err := cluster.NewShardedFleet(cluster.ShardedConfig{
		Racks:        racks,
		NodesPerRack: nodesPerRack,
		TraceCap:     4096,
		Workers:      workers,
	}, cfg)
	if err != nil {
		panic(err)
	}
	var fns []string
	for _, p := range workload.Table4() {
		if err := f.Register(p); err != nil {
			panic(err)
		}
		fns = append(fns, p.Name)
	}
	az := workload.AzureConfig(fns)
	az.Duration = o.dur(az.Duration)
	f.RunTrace(workload.Industrial(rand.New(rand.NewSource(o.Seed+2)), az))

	var digest uint64
	for _, sp := range f.Spans() {
		for _, b := range sp.TraceID {
			digest = digest*1099511628211 + uint64(b)
		}
		digest = digest*1099511628211 + uint64(sp.Start) + uint64(sp.End)<<1
	}
	return shardedRun{
		events:      f.Events(),
		invocations: int64(f.Invocations()),
		spillovers:  f.Spillovers(),
		windows:     f.Group().Windows(),
		messages:    f.Group().Messages(),
		simTime:     f.Group().Now(),
		spanDigest:  digest,
	}
}

// Sharding demonstrates the sharded engine's determinism contract: the
// same seeded fleet workload is replayed at worker counts 1, 2, and 4
// plus a reference run executed at o.Shards workers, and every
// deterministic total — events, invocations, spillovers,
// synchronization windows, cross-shard messages, and a digest of the
// merged span list — must be identical across the sweep. The reference
// row's label is fixed ("reference", not the count) precisely so the
// -shards flag can never change a single output byte: two invocations
// at -shards 1 and -shards 4 physically schedule differently and must
// still render identically. Wall-clock scaling is deliberately
// excluded (the bench module's azure-fleet-sharded workload reports it
// as sim.shard_speedup); these lines gate logical equivalence only.
func Sharding(o Options) *Result {
	o = o.normalize()
	r := &Result{
		ID:    "sharding",
		Title: "Worker-count invariance of the sharded fleet (4 racks x 2 nodes, Azure trace)",
		Notes: "identical rows = identical logical schedule; wall-clock scaling is bench/'s azure-fleet-sharded sim.shard_speedup",
	}
	base := runSharded(o, 4, 2, o.workers())
	const row = "%-10s %12d %12d %10d %9d %10d %16x"
	r.Addf("%-10s %12s %12s %10s %9s %10s %16s", "workers", "events", "invocations", "spills", "windows", "messages", "span-digest")
	r.Addf(row, "reference", base.events, base.invocations, base.spillovers, base.windows, base.messages, base.spanDigest)
	for _, workers := range []int{1, 2, 4} {
		run := runSharded(o, 4, 2, workers)
		r.Addf(row, fmt.Sprintf("%d", workers), run.events, run.invocations, run.spillovers, run.windows, run.messages, run.spanDigest)
		if run != base {
			r.Addf("DIVERGENCE at workers=%d: logical schedule is not worker-invariant", workers)
		}
	}
	r.Addf("sim time per run: %s", base.simTime)
	return r
}
