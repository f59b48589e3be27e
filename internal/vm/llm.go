package vm

import (
	"repro/internal/agent"
	"repro/internal/sim"
)

// LLMServer is the simulated inference endpoint of §9.6's methodology:
// agents' recorded LLM outputs are replayed with their recorded response
// latencies, making agent execution deterministic across runs. The
// server tracks aggregate token traffic for the cost analysis.
type LLMServer struct {
	inTokens  sim.Counter
	outTokens sim.Counter
}

// NewLLMServer returns an empty replay server.
func NewLLMServer() *LLMServer {
	return &LLMServer{}
}

// Serve replays one recorded LLM call: the caller blocks for the
// recorded response latency while the server tallies token usage.
func (s *LLMServer) Serve(p *sim.Proc, step agent.Step) {
	s.inTokens.IncBy(int64(step.InTokens))
	s.outTokens.IncBy(int64(step.OutTokens))
	if step.Wait > 0 {
		p.Sleep(step.Wait)
	}
}

// Tokens returns total input and output tokens served.
func (s *LLMServer) Tokens() (in, out int64) {
	return s.inTokens.Value(), s.outTokens.Value()
}

// Cost prices the served traffic with the given pricing (Eq. 1 summed
// over all calls).
func (s *LLMServer) Cost(pr agent.Pricing) float64 {
	in, out := s.Tokens()
	return float64(in)*pr.InPerToken + float64(out)*pr.OutPerToken
}
