package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
)

func TestCheckpointToTemplatePipeline(t *testing.T) {
	// The offline pipeline: checkpointed snapshot -> preprocess ->
	// template attach. testSnap's 1 MB image has a 64-page heap.
	snap := testSnap("fn", 1, 4)
	pool := mem.NewPool(mem.CXL, 0, mem.DefaultLatencyModel())
	st := NewStore(mem.NewBlockStore(pool), mmtemplate.NewRegistry())
	img, err := st.Preprocess(snap, Placement{Hot: pool, HotFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RestoreTemplate(img, mem.NewTracker("n", 0), mem.DefaultLatencyModel(), mmtemplate.DefaultCostModel(), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, v := res.Region("heap"); v == nil || v.CountIn(pagetable.RemoteDirect) != 64 {
		t.Fatal("pipeline did not produce an attachable heap")
	}
}

func TestImageRoundTrip(t *testing.T) {
	snap := testSnap("fn", 1, 4)
	var buf bytes.Buffer
	if err := WriteImage(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Function != snap.Function || got.MemBytes() != snap.MemBytes() || got.Threads() != snap.Threads() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, snap)
	}
	if len(got.Procs[0].Regions) != len(snap.Procs[0].Regions) {
		t.Fatal("regions lost")
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":    "{nope",
		"bad magic":   `{"header":{"magic":"x","version":1},"snapshot":{"Function":"f","Procs":[{"Name":"p","Threads":1}]}}`,
		"bad version": `{"header":{"magic":"trenv-criu-image","version":9},"snapshot":{"Function":"f","Procs":[{"Name":"p","Threads":1}]}}`,
		"no snapshot": `{"header":{"magic":"trenv-criu-image","version":1}}`,
		"no procs":    `{"header":{"magic":"trenv-criu-image","version":1},"snapshot":{"Function":"f"}}`,
		"bad threads": `{"header":{"magic":"trenv-criu-image","version":1},"snapshot":{"Function":"f","Procs":[{"Name":"p","Threads":0}]}}`,
		"bad region":  `{"header":{"magic":"trenv-criu-image","version":1},"snapshot":{"Function":"f","Procs":[{"Name":"p","Threads":1,"Regions":[{"Name":"r","Bytes":100}]}]}}`,
	}
	for name, raw := range cases {
		if _, err := ReadImage(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
