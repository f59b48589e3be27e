package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestSpanJSONLPinned pins the JSONL export of the run whose Chrome
// trace, analysis, folded stacks and stdout BENCH_spans.sha256 pins:
//
//	trenv-bench -exp fig17 -seed 7 -scale 0.1 -prefetch \
//	  -chaos 'flaky:rdma:0.2:burst=2,crash:n1:30s'
//
// trenv-bench has no JSONL output, so this test covers it. The tracer's
// 4,096-root ring has wrapped, and what it keeps includes fault,
// prefetch, pool-fetch, remote-fetch, evict, expire and error spans,
// with and without link span IDs. Change want only for an intended
// change to the span export (EXPERIMENTS.md, "Regenerating baselines").
func TestSpanJSONLPinned(t *testing.T) {
	const want = "913bdade9ac549cc768988dc19825624bc8933bdce624e723cbe69b510cb3306"
	sc, err := fault.ParseSpec("flaky:rdma:0.2:burst=2,crash:n1:30s")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	Fig17(Options{Seed: 7, Scale: 0.1, Prefetch: true, Chaos: &sc, Tracer: tr})
	if tr.Dropped() == 0 {
		t.Fatalf("the pin run dropped no roots; it must wrap the %d-root ring", obs.DefaultTracerCapacity)
	}
	h := sha256.New()
	if err := obs.WriteJSONL(h, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sha256 of the span JSONL = %s, want %s", got, want)
	}
}
