package mmtemplate_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// BenchmarkTemplateAttach attaches every template of each Table-4
// function's image, laid out as a multi-layer rack lays it out: the hot
// 40% of each region on CXL, the rest on RDMA. The first attach, which
// compiles each template, runs before the timer. One op is one
// function's attaches; allocs/op is five per template.
func BenchmarkTemplateAttach(b *testing.B) {
	lat := mem.DefaultLatencyModel()
	cost := mmtemplate.DefaultCostModel()
	for _, prof := range workload.Table4() {
		cxl, rdma := mem.NewPool(mem.CXL, 0, lat), mem.NewPool(mem.RDMA, 0, lat)
		store := snapshot.NewStore(mem.NewBlockStore(cxl), mmtemplate.NewRegistry())
		img, err := store.Preprocess(prof.Snapshot(), snapshot.Placement{Hot: cxl, Cold: rdma, HotFraction: 0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prof.Name, func(b *testing.B) {
			tr := mem.NewTracker("node", 0)
			for _, tpl := range img.Templates { // compile outside the timer
				if _, _, err := tpl.Attach(tr, lat, cost); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tpl := range img.Templates {
					if _, _, err := tpl.Attach(tr, lat, cost); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
