package main

import (
	"net/http"
	"testing"
	"time"
)

// TestChaosScenarioValidated: a structured POST /chaos scenario is held
// to the chaos spec grammar's rules. Each bad field gets a 400 and arms
// nothing, so a valid scenario still arms afterwards.
func TestChaosScenarioValidated(t *testing.T) {
	ts := testServer(t)
	type obj = map[string]any
	list := func(o obj) []obj { return []obj{o} }
	bad := []struct {
		name     string
		scenario obj
	}{
		{"outage window empty", obj{"pool_outages": list(obj{"pool": "cxl", "from": 2 * time.Second, "to": time.Second})}},
		{"outage window left out", obj{"pool_outages": list(obj{"pool": "cxl"})}},
		{"degrade factor negative", obj{"pool_degrades": list(obj{"pool": "cxl", "to": 1000 * time.Second, "factor": -5})}},
		{"degrade factor 1", obj{"pool_degrades": list(obj{"pool": "cxl", "to": time.Second, "factor": 1})}},
		{"degrade window empty", obj{"pool_degrades": list(obj{"pool": "cxl", "from": time.Second, "to": time.Second, "factor": 3})}},
		{"flaky probability above 1", obj{"flaky_fetches": list(obj{"pool": "rdma", "prob": 7})}},
		{"flaky probability 0", obj{"flaky_fetches": list(obj{"pool": "rdma", "prob": 0})}},
		{"flaky burst negative", obj{"flaky_fetches": list(obj{"pool": "rdma", "prob": 0.2, "burst": -1})}},
		{"flaky window empty", obj{"flaky_fetches": list(obj{"pool": "rdma", "prob": 0.2, "from": 5 * time.Second})}},
		{"crash time negative", obj{"node_crashes": list(obj{"node": "n0", "at": -time.Second})}},
		{"flap down 0", obj{"link_flaps": list(obj{"pool": "rdma", "period": time.Second, "count": 3})}},
		{"flap down above period", obj{"link_flaps": list(obj{"pool": "rdma", "period": time.Second, "down": 2 * time.Second, "count": 3})}},
		{"flap count 0", obj{"link_flaps": list(obj{"pool": "rdma", "period": time.Second, "down": 100 * time.Millisecond})}},
		{"flap offset negative", obj{"link_flaps": list(obj{"pool": "rdma", "from": -time.Second, "period": time.Second, "down": 100 * time.Millisecond, "count": 3})}},
		{"one bad clause among good ones", obj{
			"pool_degrades": list(obj{"pool": "cxl", "to": 1000 * time.Second, "factor": -5}),
			"flaky_fetches": list(obj{"pool": "rdma", "prob": 0.2}),
		}},
	}
	for _, tc := range bad {
		resp, out := postJSON(t, ts.URL+"/chaos", obj{"scenario": tc.scenario})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v), want 400", tc.name, resp.StatusCode, out)
		}
	}
	good := obj{
		"pool_degrades": list(obj{"pool": "cxl", "to": 1000 * time.Second, "factor": 3}),
		"flaky_fetches": list(obj{"pool": "rdma", "prob": 0.2, "burst": 2}),
		"link_flaps":    list(obj{"pool": "rdma", "period": time.Second, "down": 100 * time.Millisecond, "count": 3}),
	}
	if resp, out := postJSON(t, ts.URL+"/chaos", obj{"scenario": good}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid scenario status = %d (%v), want 201", resp.StatusCode, out)
	}
}
