package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	trenv "repro"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestTraceRejectsNegativeLast(t *testing.T) {
	ts := testServer(t)
	status, body := getBody(t, ts.URL+"/trace?last=-1")
	if status != http.StatusBadRequest {
		t.Fatalf("last=-1 status = %d, want 400", status)
	}
	var out map[string]string
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if out["error"] == "" {
		t.Fatalf("error body = %q", body)
	}
}

func TestTimeseriesEndpointServesJSONAndCSV(t *testing.T) {
	ts := testServer(t)
	deployAndInvoke(t, ts.URL)

	status, body := getBody(t, ts.URL+"/timeseries")
	if status != http.StatusOK {
		t.Fatalf("timeseries status = %d", status)
	}
	var doc struct {
		Samples int `json:"samples"`
		Series  []struct {
			Name   string `json:"name"`
			Points []struct {
				TMS float64 `json:"t_ms"`
				V   float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid timeseries JSON: %v", err)
	}
	if doc.Samples == 0 || len(doc.Series) == 0 {
		t.Fatalf("empty timeseries: samples=%d series=%d", doc.Samples, len(doc.Series))
	}
	found := false
	for _, s := range doc.Series {
		if s.Name == "trenv_invocations_total" {
			found = true
			if n := len(s.Points); n == 0 {
				t.Fatal("invocation series has no points")
			} else if got := s.Points[n-1].V; got != 4 {
				t.Fatalf("final sampled invocations = %v, want 4", got)
			}
		}
	}
	if !found {
		t.Fatal("no trenv_invocations_total series")
	}

	resp, err := http.Get(ts.URL + "/timeseries?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content-type = %q", ct)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	if !strings.HasPrefix(string(csvBody), "series,labels,t_ms,value,rate_per_s") {
		t.Fatalf("csv header missing:\n%.120s", csvBody)
	}

	if status, _ := getBody(t, ts.URL+"/timeseries?format=xml"); status != http.StatusBadRequest {
		t.Fatalf("format=xml status = %d, want 400", status)
	}
}

func TestTimeseriesDeterministicAcrossServers(t *testing.T) {
	run := func() string {
		ts := httptest.NewServer(newServer(trenv.TrEnvCXL, 7).mux())
		defer ts.Close()
		deployAndInvoke(t, ts.URL)
		status, body := getBody(t, ts.URL+"/timeseries")
		if status != http.StatusOK {
			t.Fatalf("timeseries status = %d", status)
		}
		return body
	}
	if run() != run() {
		t.Fatal("same-seed /timeseries exports differ")
	}
}

func TestNodeLabelAndSLOMetrics(t *testing.T) {
	ts := httptest.NewServer(newServerWith(serverOptions{
		policy:    trenv.TrEnvCXL,
		seed:      1,
		node:      "n7",
		sloTarget: time.Millisecond, // every start breaches: burn rate visible
	}).mux())
	defer ts.Close()
	deployAndInvoke(t, ts.URL)

	status, out := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{
		`trenv_invocations_total{node="n7"} 4`,
		`trenv_node_mem_peak_bytes{node="n7"}`,
		`trenv_e2e_latency_ms_count{function="JS",node="n7"}`,
		`trenv_spans_dropped_total{node="n7"}`,
		`trenv_slo_target_ms{function="JS",node="n7"} 1`,
		`trenv_slo_breaches_total{function="JS",node="n7"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
