// Multilayer: the hot/cold memory architecture of §3.1 — consolidated
// images split between a small byte-addressable CXL tier and a large
// RDMA tier, swept over the share of each image kept on CXL.
//
//	go run ./examples/multilayer
package main

import (
	"fmt"
	"math/rand"
	"time"

	trenv "repro"
	"repro/internal/workload"
)

func main() {
	// Run the container platform with progressively less CXL (the tail
	// of each image spills to RDMA).
	var names []string
	for _, fn := range trenv.Functions() {
		names = append(names, fn.Name)
	}
	cfgW1 := workload.DefaultW1(names)
	cfgW1.Duration = 8 * time.Minute
	cfgW1.BurstGap = 3 * time.Minute
	tr := workload.W1Bursty(rand.New(rand.NewSource(3)), cfgW1)

	fmt.Println("hot-fraction sweep (W1 bursty, fresh starts each burst):")
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		cfg := trenv.DefaultContainerConfig(trenv.TrEnvCXL)
		cfg.KeepAlive = 2 * time.Minute
		cfg.HotFraction = frac
		pl := trenv.NewContainerPlatform(cfg)
		for _, fn := range trenv.Functions() {
			pl.Register(fn)
		}
		pl.RunTrace(tr)
		cxl, rdma, _ := pl.PoolUsage()
		fmt.Printf("  %.0f%% on CXL: e2e p99=%7.1fms  pool split cxl=%.2fGB rdma=%.2fGB\n",
			frac*100, pl.Metrics().All.E2E.Percentile(99),
			float64(cxl)/(1<<30), float64(rdma)/(1<<30))
	}
}
