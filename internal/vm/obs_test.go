package vm

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

func tracedAgentRun(t *testing.T, seed int64) []*obs.Span {
	t.Helper()
	cfg := DefaultConfig(PolicyTrEnv)
	cfg.Seed = seed
	cfg.Tracer = obs.NewTracer(0)
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAgent(t, "blackjack")
	pl.Launch(0, a)
	pl.Launch(a.TotalE2E(), a)
	pl.Run()
	return cfg.Tracer.Spans()
}

func TestAgentRunsRecordSpans(t *testing.T) {
	spans := tracedAgentRun(t, 1)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2 (one per launch)", len(spans))
	}
	for _, root := range spans {
		if root.Name != "agent/blackjack" {
			t.Fatalf("root name = %q", root.Name)
		}
		var sawStartup, sawLLM bool
		for _, c := range root.Children {
			switch c.Name {
			case "startup":
				sawStartup = true
			case "llm":
				sawLLM = true
				if c.Attr("in_tokens") == "" {
					t.Fatalf("llm step span missing token attrs: %v", c.Attrs)
				}
			}
			if c.Start < root.Start || c.End > root.End {
				t.Fatalf("child %s [%v,%v] escapes root [%v,%v]",
					c.Name, c.Start, c.End, root.Start, root.End)
			}
		}
		if !sawStartup || !sawLLM {
			t.Fatalf("span missing phases (startup=%v llm=%v): %s", sawStartup, sawLLM, root)
		}
	}
}

func TestAgentTraceDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tracedAgentRun(t, 4)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("agent Chrome trace differs across identical-seed runs")
	}
}

func TestAgentPlatformRegisterMetrics(t *testing.T) {
	cfg := DefaultConfig(PolicyTrEnv)
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAgent(t, "blackjack")
	pl.Launch(0, a)
	pl.Run()
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE trenv_agent_e2e_latency_ms summary",
		`trenv_agent_e2e_latency_ms{agent="blackjack"`,
		"trenv_agent_runs_total 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("agent metrics missing %q:\n%s", want, buf.String())
		}
	}
}
