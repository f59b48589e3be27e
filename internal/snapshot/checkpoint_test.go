package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
)

func liveSpaces(t *testing.T) []*pagetable.AddressSpace {
	t.Helper()
	tr := mem.NewTracker("node", 0)
	as := pagetable.NewAddressSpace(tr, mem.DefaultLatencyModel())
	if _, err := as.AddVMA("text", 0x400000, 16, pagetable.Read|pagetable.Exec, pagetable.File, nil, 0, pagetable.Local); err != nil {
		t.Fatal(err)
	}
	if _, err := as.AddVMA("heap", 0x800000, 64, pagetable.Read|pagetable.Write, pagetable.Anon, nil, 0, pagetable.Local); err != nil {
		t.Fatal(err)
	}
	return []*pagetable.AddressSpace{as}
}

func TestCheckpointCapturesLayout(t *testing.T) {
	snap, d, err := Checkpoint("fn", liveSpaces(t), 14, 20, DefaultCheckpointCosts())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("checkpoint was free")
	}
	if snap.Function != "fn" || len(snap.Procs) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	proc := snap.Procs[0]
	if proc.Threads != 14 || proc.FDs != 20 {
		t.Fatalf("threads/fds = %d/%d", proc.Threads, proc.FDs)
	}
	if len(proc.Regions) != 2 {
		t.Fatalf("regions = %d", len(proc.Regions))
	}
	if proc.Regions[0].Name != "text" || proc.Regions[0].Prot&pagetable.Exec == 0 {
		t.Fatal("text region not captured")
	}
	if snap.MemBytes() != 80*mem.PageSize {
		t.Fatalf("mem bytes = %d", snap.MemBytes())
	}
}

func TestCheckpointValidation(t *testing.T) {
	if _, _, err := Checkpoint("fn", nil, 1, 1, DefaultCheckpointCosts()); err == nil {
		t.Fatal("no processes accepted")
	}
	if _, _, err := Checkpoint("fn", liveSpaces(t), 0, 1, DefaultCheckpointCosts()); err == nil {
		t.Fatal("0 threads for 1 process accepted")
	}
}

func TestCheckpointToTemplatePipeline(t *testing.T) {
	// The full offline pipeline: run -> checkpoint -> preprocess ->
	// template attach.
	snap, _, err := Checkpoint("fn", liveSpaces(t), 4, 8, DefaultCheckpointCosts())
	if err != nil {
		t.Fatal(err)
	}
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
	snap, _, err := Checkpoint("fn", liveSpaces(t), 4, 8, DefaultCheckpointCosts())
	if err != nil {
		t.Fatal(err)
	}
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
