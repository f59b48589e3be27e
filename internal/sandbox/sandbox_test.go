package sandbox

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// runProc runs fn as a single simulated process and returns the virtual
// time it consumed.
func runProc(t *testing.T, fn func(p *sim.Proc)) time.Duration {
	t.Helper()
	e := sim.NewEngine(1)
	var took time.Duration
	e.Go("test", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		took = p.Now() - start
	})
	e.Run()
	return took
}

func TestCreateCostsInTable1Range(t *testing.T) {
	f := NewFactory(DefaultCostModel())
	took := runProc(t, func(p *sim.Proc) {
		sb, b := f.Create(p, "fnA")
		if sb.Function != "fnA" {
			t.Errorf("sandbox not configured for fnA: %+v", sb)
		}
		if b.NetNS < 80*time.Millisecond {
			t.Errorf("netns cost %v below Table 1 floor", b.NetNS)
		}
		if b.CgroupCreate < 16*time.Millisecond || b.CgroupCreate > 32*time.Millisecond {
			t.Errorf("cgroup create %v outside [16,32]ms", b.CgroupCreate)
		}
		if b.CgroupMigrate < 10*time.Millisecond || b.CgroupMigrate > 50*time.Millisecond {
			t.Errorf("cgroup migrate %v outside [10,50]ms", b.CgroupMigrate)
		}
		if b.Other >= time.Millisecond {
			t.Errorf("other namespaces %v, Table 1 says < 1ms", b.Other)
		}
	})
	// Single uncontended cold start: ~120-170 ms.
	if took < 100*time.Millisecond || took > 500*time.Millisecond {
		t.Fatalf("cold sandbox creation took %v", took)
	}
}

func TestConcurrentCreationInflatesNetNS(t *testing.T) {
	f := NewFactory(DefaultCostModel())
	e := sim.NewEngine(1)
	var maxNet time.Duration
	for i := 0; i < 15; i++ {
		e.Go("creator", func(p *sim.Proc) {
			_, b := f.Create(p, "fn")
			if b.NetNS > maxNet {
				maxNet = b.NetNS
			}
		})
	}
	e.Run()
	// Paper: 15 concurrent cold starts push network setup to ~400 ms.
	if maxNet < 350*time.Millisecond {
		t.Fatalf("netns under 15-way concurrency = %v, want ~400ms", maxNet)
	}
	if f.Created() != 15 {
		t.Fatalf("created = %d", f.Created())
	}
}

func TestNetNSCapped(t *testing.T) {
	cm := DefaultCostModel()
	f := NewFactory(cm)
	e := sim.NewEngine(1)
	var maxNet time.Duration
	for i := 0; i < 1000; i++ {
		e.Go("creator", func(p *sim.Proc) {
			_, b := f.Create(p, "fn")
			if b.NetNS > maxNet {
				maxNet = b.NetNS
			}
		})
	}
	e.Run()
	if maxNet > cm.NetNSMax {
		t.Fatalf("netns cost %v exceeds cap %v", maxNet, cm.NetNSMax)
	}
}

func TestCleanEnforcesIsolationInvariants(t *testing.T) {
	f := NewFactory(DefaultCostModel())
	runProc(t, func(p *sim.Proc) {
		sb, _ := f.Create(p, "fnA")
		f.Clean(p, sb)
		if sb.Function != "" {
			t.Error("sandbox still occupied after clean")
		}
		if !sb.DirtyUpper {
			t.Error("upper dir purge should be pending (async)")
		}
		p.Sleep(5 * time.Millisecond) // async purge completes
		if sb.DirtyUpper {
			t.Error("async purge never completed")
		}
	})
}

// repurposeRange is §5.2.1's price of one repurpose once the upper dir is
// clean: two overlay mount syscalls plus the CLONE_INTO_CGROUP spawn, as
// the half-open interval [lo, hi).
func repurposeRange(cm CostModel) (lo, hi time.Duration) {
	return 2*cm.OverlayMount + cm.CloneIntoCgroupMin, 2*cm.OverlayMount + cm.CloneIntoCgroupMax
}

func TestRepurposeIsFastAndReconfigures(t *testing.T) {
	cm := DefaultCostModel()
	f := NewFactory(cm)
	var repurposeCost time.Duration
	runProc(t, func(p *sim.Proc) {
		sb, _ := f.Create(p, "fnA")
		f.Clean(p, sb)
		p.Sleep(5 * time.Millisecond) // async purge done
		d, err := f.Repurpose(p, sb, "fnB")
		if err != nil {
			t.Error(err)
			return
		}
		repurposeCost = d
		if sb.Function != "fnB" {
			t.Errorf("sandbox not reconfigured: %+v", sb)
		}
	})
	// Paper: rootfs reconfig is 2 mounts, CLONE_INTO_CGROUP 100-300 µs.
	if lo, hi := repurposeRange(cm); repurposeCost < lo || repurposeCost >= hi {
		t.Fatalf("repurpose cost %v, want in [%v, %v)", repurposeCost, lo, hi)
	}
	if f.Repurposed() != 1 {
		t.Fatalf("repurposed = %d", f.Repurposed())
	}
}

func TestRepurposeBeforePurgePaysSyncCost(t *testing.T) {
	cm := DefaultCostModel()
	f := NewFactory(cm)
	runProc(t, func(p *sim.Proc) {
		sb, _ := f.Create(p, "fnA")
		f.Clean(p, sb)
		// Immediately repurpose: purge must complete synchronously.
		d, err := f.Repurpose(p, sb, "fnB")
		if err != nil {
			t.Error(err)
			return
		}
		// The pending purge completes synchronously for exactly 2 ms.
		const purge = 2 * time.Millisecond
		if lo, hi := repurposeRange(cm); d < lo+purge || d >= hi+purge {
			t.Errorf("synchronous purge not charged: %v, want in [%v, %v)", d, lo+purge, hi+purge)
		}
		if sb.DirtyUpper {
			t.Error("upper dir still dirty after repurpose")
		}
	})
}

func TestRepurposeOccupiedFails(t *testing.T) {
	f := NewFactory(DefaultCostModel())
	runProc(t, func(p *sim.Proc) {
		sb, _ := f.Create(p, "fnA")
		if _, err := f.Repurpose(p, sb, "fnB"); err == nil {
			t.Error("repurposing an occupied sandbox succeeded")
		}
	})
}

func TestRepurposeMuchCheaperThanCreate(t *testing.T) {
	f := NewFactory(DefaultCostModel())
	var createCost, repurposeCost time.Duration
	runProc(t, func(p *sim.Proc) {
		t0 := p.Now()
		sb, _ := f.Create(p, "fnA")
		createCost = p.Now() - t0
		f.Clean(p, sb)
		p.Sleep(5 * time.Millisecond)
		t1 := p.Now()
		f.Repurpose(p, sb, "fnB")
		repurposeCost = p.Now() - t1
	})
	if repurposeCost*50 > createCost {
		t.Fatalf("repurpose (%v) should be >50x cheaper than create (%v)", repurposeCost, createCost)
	}
}

func TestPoolLIFO(t *testing.T) {
	var pool Pool
	a := &Sandbox{ID: 1}
	b := &Sandbox{ID: 2}
	pool.Put(a)
	pool.Put(b)
	if pool.Len() != 2 {
		t.Fatalf("len = %d", pool.Len())
	}
	if got := pool.Get(); got != b {
		t.Fatal("pool not LIFO")
	}
	if got := pool.Get(); got != a {
		t.Fatal("second get wrong")
	}
	if pool.Get() != nil {
		t.Fatal("empty pool returned sandbox")
	}
}

func TestPoolRejectsOccupied(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pooling occupied sandbox did not panic")
		}
	}()
	var pool Pool
	pool.Put(&Sandbox{ID: 1, Function: "fnA"})
}

func TestNetNSPoolRecycling(t *testing.T) {
	var pool NetNSPool
	ns := &NetNS{ID: 1}
	pool.Put(ns)
	if got := pool.Get(); got != ns {
		t.Fatal("namespace not recycled")
	}
	if pool.Get() != nil || pool.Len() != 0 {
		t.Fatal("empty pool behavior")
	}
}

func TestMigrateCgroupInRange(t *testing.T) {
	cm := DefaultCostModel()
	f := NewFactory(cm)
	took := runProc(t, func(p *sim.Proc) { f.MigrateCgroup(p) })
	if took < cm.CgroupMigrateMin || took > cm.CgroupMigrateMax {
		t.Fatalf("migrate cost %v outside range", took)
	}
}
