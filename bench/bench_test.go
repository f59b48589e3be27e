package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// smokeScale shortens every trace to 5% of its length.
const smokeScale = 0.05

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRuns runs every workload twice in-process at smokeScale, the
// second time with the traced pass's exports. The sharded fleet runs
// once on its reference worker count and once on its measured count.
func smokeRuns(t *testing.T) []*measured {
	t.Helper()
	var ms []*measured
	for _, def := range workloads {
		first := def.workers
		if def.workers > 1 {
			first = fleetRefWorkers
		}
		r1, err := runRep(def, 1, smokeScale, first, false)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runRep(def, 1, smokeScale, def.workers, true)
		if err != nil {
			t.Fatal(err)
		}
		m := &measured{def: def, reps: []*rep{r1, r2}}
		if def.workers > 1 {
			m.ref, m.reps = r1, []*rep{r2}
		}
		ms = append(ms, m)
	}
	return ms
}

func TestSmoke(t *testing.T) {
	ms := smokeRuns(t)
	s := loadSpec(t)

	t.Run("self-check", func(t *testing.T) {
		for _, m := range ms {
			var errs bytes.Buffer
			got := summarize(m, &errs)
			if !got.correct || got.failed != 0 {
				t.Errorf("%s: correct %v, failed %d of %d: %s", m.def.name, got.correct, got.failed, got.attempted, errs.String())
			}
			for _, r := range append([]*rep{m.ref}, m.reps...) {
				if r != nil && (r.Wedged != 0 || r.Invocations == 0) {
					t.Errorf("%s: %d wedged of %d invocations", m.def.name, r.Wedged, r.Invocations)
				}
			}
		}
	})

	t.Run("metrics-match-BENCHMARK.json", func(t *testing.T) {
		if len(s.Workloads) != len(workloads) {
			t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
		}
		for i, w := range s.Workloads {
			if w.Name != workloads[i].name || w.Why != workloads[i].why {
				t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
					i, w.Name, w.Why, workloads[i].name, workloads[i].why)
			}
		}
		for _, m := range ms {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if code := report([]*measured{m}, traced, &out, &bytes.Buffer{}); code != 0 {
					t.Fatalf("%s: report exited %d", m.def.name, code)
				}
				var res result
				if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
					t.Fatal(err)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", m.def.name, traced, len(res.Metrics), len(want))
				}
				for _, w := range want {
					if g, ok := res.Metrics[w.Name]; !ok || g.Unit != w.Unit {
						t.Errorf("%s traced=%v: metric %s emitted as %+v (present %v), want unit %s",
							m.def.name, traced, w.Name, g, ok, w.Unit)
					}
				}
			}
		}
	})

	t.Run("perturbed-digest-fails", func(t *testing.T) {
		m := ms[0]
		bad := *m.reps[1]
		bad.Digest += "0"
		perturbed := &measured{def: m.def, reps: []*rep{m.reps[0], &bad}}
		var out, errs bytes.Buffer
		if code := report([]*measured{perturbed}, false, &out, &errs); code == 0 {
			t.Fatalf("report exited 0 on a perturbed digest")
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < bad.Invocations {
			t.Errorf("perturbed rep: correct %v, failed %d, want false and >= %d", res.Correct, res.Failed, bad.Invocations)
		}
	})
}
