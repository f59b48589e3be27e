// Package agent models the LLM-agent workloads of the paper's case study
// (§2, Tables 2-3): six representative agents spanning lightweight
// request/response flows (Blackjack, Bug fixer, Map reduce) and complex,
// browser-driven ReAct agents (Shop assistant, Blog summary, Game
// design).
//
// Agent execution is a deterministic step timeline synthesized from the
// published per-agent statistics — exactly mirroring the paper's
// methodology of replaying recorded LLM outputs and response latencies
// against a simulated inference server (§9.6).
package agent

import (
	"fmt"
	"time"
)

// StepKind classifies one step of an agent run.
type StepKind int

// Step kinds.
const (
	// LLMCall waits on the (replayed) inference server; no local CPU.
	LLMCall StepKind = iota
	// ToolCPU is local computation (interpreter, parser, game engine).
	ToolCPU
	// BrowserOp drives the browser (render, navigate, snapshot).
	BrowserOp
	// FileIO reads file data, populating page caches.
	FileIO
)

// String names the kind.
func (k StepKind) String() string {
	switch k {
	case LLMCall:
		return "llm"
	case ToolCPU:
		return "tool"
	case BrowserOp:
		return "browser"
	case FileIO:
		return "fileio"
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// Step is one timeline entry.
type Step struct {
	Kind StepKind
	// Wait is off-CPU time (LLM response latency).
	Wait time.Duration
	// CPU is on-CPU time (contends for cores under overcommitment).
	CPU time.Duration
	// MemBytes is working memory allocated by the step and retained for
	// the rest of the run.
	MemBytes int64
	// FileBytes is file data read by the step (page-cache relevant).
	FileBytes int64
	// InTokens/OutTokens are the LLM tokens consumed/produced.
	InTokens  int
	OutTokens int
}

// SpanAttrs returns the step's observability annotations (token counts
// for LLM calls, byte counts for memory/file activity); zero-valued
// fields are omitted. Used by the platform tracers when recording a
// span per step.
func (s Step) SpanAttrs() map[string]string {
	attrs := make(map[string]string)
	if s.InTokens > 0 {
		attrs["in_tokens"] = fmt.Sprint(s.InTokens)
	}
	if s.OutTokens > 0 {
		attrs["out_tokens"] = fmt.Sprint(s.OutTokens)
	}
	if s.MemBytes > 0 {
		attrs["mem_bytes"] = fmt.Sprint(s.MemBytes)
	}
	if s.FileBytes > 0 {
		attrs["file_bytes"] = fmt.Sprint(s.FileBytes)
	}
	return attrs
}

// Profile is one agent application.
type Profile struct {
	Name        string
	Framework   string
	Description string

	// VMMemory/VMCPUs/VMStorage are the provisioned guest resources
	// (§9.6: 2 GB for lightweight agents, 4 GB for browser agents).
	VMMemory  int64
	VMCPUs    int
	VMStorage int64

	// BaseMemBytes is the process footprint right after initialization.
	BaseMemBytes int64
	// UsesBrowser marks the complex agents; Tabs is how many browser
	// tabs one run needs.
	UsesBrowser bool
	Tabs        int

	Steps []Step
}

// TotalE2E returns the contention-free end-to-end latency (sum of waits
// and CPU).
func (p Profile) TotalE2E() time.Duration {
	var d time.Duration
	for _, s := range p.Steps {
		d += s.Wait + s.CPU
	}
	return d
}

// TotalCPU returns the on-CPU time of one run.
func (p Profile) TotalCPU() time.Duration {
	var d time.Duration
	for _, s := range p.Steps {
		d += s.CPU
	}
	return d
}

// CPUUtilization is TotalCPU / TotalE2E.
func (p Profile) CPUUtilization() float64 {
	e2e := p.TotalE2E()
	if e2e == 0 {
		return 0
	}
	return float64(p.TotalCPU()) / float64(e2e)
}

// FileReadBytes is the total file data read during a run.
func (p Profile) FileReadBytes() int64 {
	var n int64
	for _, s := range p.Steps {
		n += s.FileBytes
	}
	return n
}

// Tokens returns total input and output token counts (Table 3).
func (p Profile) Tokens() (in, out int) {
	for _, s := range p.Steps {
		in += s.InTokens
		out += s.OutTokens
	}
	return
}

// makeTimeline synthesizes an agent timeline: calls LLM steps whose waits
// sum to llmWait and whose tokens sum to the Table 3 counts, interleaved
// with tool/browser/file steps carrying the CPU, memory, and file I/O
// budgets. browserWeight sets how much of the CPU budget each browser
// operation takes relative to a glue-code step: rendering-heavy agents
// (blog-summary) put most of their CPU inside the browser, while
// game-design only occasionally opens a page.
func makeTimeline(calls int, llmWait, cpu time.Duration, inTok, outTok int, dynMem, fileBytes int64, browserOps int, browserWeight float64) []Step {
	var steps []Step
	waitPer := llmWait / time.Duration(calls)
	inPer, outPer := inTok/calls, outTok/calls
	cpuUnits := float64(calls) + browserWeight*float64(browserOps)
	cpuPer := time.Duration(float64(cpu) / cpuUnits)
	memUnits := calls + browserOps
	memPer := dynMem / int64(memUnits)
	filePer := int64(0)
	if browserOps > 0 {
		filePer = fileBytes / int64(browserOps)
	}
	for i := 0; i < calls; i++ {
		in, out := inPer, outPer
		if i == calls-1 { // absorb rounding
			in = inTok - inPer*(calls-1)
			out = outTok - outPer*(calls-1)
		}
		steps = append(steps, Step{Kind: LLMCall, Wait: waitPer, InTokens: in, OutTokens: out})
		steps = append(steps, Step{Kind: ToolCPU, CPU: cpuPer, MemBytes: memPer})
		if browserOps > 0 && i < browserOps {
			steps = append(steps, Step{Kind: BrowserOp, CPU: time.Duration(browserWeight * float64(cpuPer)), MemBytes: memPer, FileBytes: filePer})
		}
	}
	if browserOps == 0 && fileBytes > 0 {
		steps = append(steps, Step{Kind: FileIO, CPU: time.Millisecond, FileBytes: fileBytes})
	}
	return steps
}

// Table2 returns the six evaluated agents. End-to-end latencies, memory
// footprints, CPU times, and token counts follow the paper's Tables 2-3;
// step structure is synthesized to match those aggregates.
func Table2() []Profile {
	return []Profile{
		{
			Name: "blackjack", Framework: "LangChain",
			Description: "play the Blackjack game",
			VMMemory:    2 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 48 << 20,
			Steps: makeTimeline(2, 2789*time.Millisecond, 411*time.Millisecond,
				1690, 8, 26<<20, 0, 0, 0),
		},
		{
			Name: "bug-fixer", Framework: "LangChain",
			Description: "fix the bugs in given code",
			VMMemory:    2 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 60 << 20,
			Steps: makeTimeline(3, 35691*time.Millisecond, 809*time.Millisecond,
				1557, 530, 35<<20, 2<<20, 0, 0),
		},
		{
			Name: "map-reduce", Framework: "LangChain",
			Description: "split and summarize a document",
			VMMemory:    2 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 90 << 20,
			Steps: makeTimeline(8, 55300*time.Millisecond, 1200*time.Millisecond,
				8640, 2644, 109<<20, 40<<20, 0, 0),
		},
		{
			Name: "shop-assistant", Framework: "Browser-Use",
			Description: "select products on a website",
			VMMemory:    4 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 160 << 20, UsesBrowser: true, Tabs: 2,
			Steps: makeTimeline(14, 130400*time.Millisecond, 10300*time.Millisecond,
				43185, 1494, 250<<20, 280<<20, 10, 3),
		},
		{
			Name: "blog-summary", Framework: "OWL",
			Description: "collect and summarize blogs",
			VMMemory:    4 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 180 << 20, UsesBrowser: true, Tabs: 3,
			Steps: makeTimeline(16, 136300*time.Millisecond, 56800*time.Millisecond,
				49398, 2703, 300<<20, 500<<20, 14, 6),
		},
		{
			Name: "game-design", Framework: "OpenManus",
			Description: "implement an HTML-based game",
			VMMemory:    4 << 30, VMCPUs: 1, VMStorage: 5 << 30,
			BaseMemBytes: 200 << 20, UsesBrowser: true, Tabs: 1,
			Steps: makeTimeline(12, 99500*time.Millisecond, 7500*time.Millisecond,
				75121, 2098, 320<<20, 180<<20, 4, 0.5),
		},
	}
}

// ByName returns the Table 2 agent with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Table2() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("agent: unknown agent %q", name)
}
