package faas

import (
	"testing"
	"time"
)

func TestRedeployReplacesImageAndDrainsWarm(t *testing.T) {
	pl := New(DefaultConfig(PolicyTrEnvCXL))
	js := mustProfile(t, "JS")
	if err := pl.Register(js); err != nil {
		t.Fatal(err)
	}
	pl.Invoke(0, "JS")
	pl.Engine().RunUntil(5 * time.Second) // first version served; instance warm
	if pl.WarmCount() != 1 {
		t.Fatalf("warm = %d", pl.WarmCount())
	}
	poolBefore, _, _ := pl.PoolUsage()
	oldImg := pl.Store().Image("JS")

	// Redeploy a new version (bigger heap).
	v2 := js
	v2.MemBytes = js.MemBytes + (32 << 20)
	if err := pl.Redeploy(v2); err != nil {
		t.Fatal(err)
	}
	pl.Engine().RunUntil(6 * time.Second) // drain runs
	if pl.WarmCount() != 0 {
		t.Fatal("stale warm instances not drained")
	}
	newImg := pl.Store().Image("JS")
	if newImg == oldImg || newImg == nil {
		t.Fatal("image not replaced")
	}
	// Retired blocks released: pool holds one version (plus dedup'd
	// shared content), not two.
	poolAfter, _, _ := pl.PoolUsage()
	if poolAfter >= poolBefore+v2.MemBytes {
		t.Fatalf("old image not released: %d -> %d", poolBefore, poolAfter)
	}

	// New invocations attach the new template.
	pl.Invoke(6*time.Second, "JS")
	pl.Engine().Run()
	var attaches int64
	for _, tpl := range newImg.Templates {
		attaches += tpl.Attaches()
	}
	if attaches != 1 {
		t.Fatalf("new image attaches = %d", attaches)
	}
	if pl.Metrics().Errors.Value() != 0 {
		t.Fatalf("errors = %d", pl.Metrics().Errors.Value())
	}
}

func TestRedeployValidation(t *testing.T) {
	pl := New(DefaultConfig(PolicyTrEnvCXL))
	if err := pl.Redeploy(mustProfile(t, "JS")); err == nil {
		t.Fatal("redeploy of unregistered function accepted")
	}
	plc := New(DefaultConfig(PolicyCRIU))
	js := mustProfile(t, "JS")
	plc.Register(js)
	if err := plc.Redeploy(js); err == nil {
		t.Fatal("redeploy on a non-template policy accepted")
	}
}

// TestRedeployStartsPromotionAfresh runs DH five rounds with promotion
// after two replays, redeploys it and invokes it twice more. The new
// version's first invocation records its own working set and its second
// is its first replay, which must promote nothing: the retired version's
// replay counts and promoted runs belong to that version alone.
func TestRedeployStartsPromotionAfresh(t *testing.T) {
	pl := prefetchPlatform(t, true, 2)
	invokeRounds(pl, "DH", 5)
	cache := pl.PromotionCache()
	hits, promoted := cache.Hits(), pl.Metrics().PromotedPages.Value()
	batches := pl.Metrics().PrefetchBatches.Value()
	if promoted == 0 {
		t.Fatal("first version promoted nothing; the test needs promoted runs to leak")
	}
	if err := pl.Redeploy(mustProfile(t, "DH")); err != nil {
		t.Fatal(err)
	}
	now := pl.Engine().Now()
	pl.Invoke(now+30*time.Second, "DH")
	pl.Invoke(now+60*time.Second, "DH")
	pl.Engine().Run()
	if pl.Metrics().Errors.Value() != 0 {
		t.Fatalf("errors = %d", pl.Metrics().Errors.Value())
	}
	img := pl.Store().Image("DH")
	if !img.WSLog.Sealed() || img.Templates[0].Attaches() != 2 {
		t.Fatalf("new version: log sealed %v, %d attaches; want a sealed log and 2 attaches",
			img.WSLog.Sealed(), img.Templates[0].Attaches())
	}
	if got := cache.Hits(); got != hits {
		t.Fatalf("cache hits %d -> %d across the new version's first replay, want no hit", hits, got)
	}
	if got := pl.Metrics().PromotedPages.Value(); got != promoted {
		t.Fatalf("promoted pages %d -> %d across the new version's first replay, want none", promoted, got)
	}
	if pl.Metrics().PrefetchBatches.Value() == batches {
		t.Fatal("the new version's first replay fetched no batch")
	}
}
