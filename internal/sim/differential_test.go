package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// FuzzEngineDifferential runs a random program on the runner engine and on
// the goroutine-per-process reference (reference_test.go) and requires the
// same log: every step of every process as (virtual time, proc id, step),
// what it drew, the order in which Shutdown unwinds parked processes,
// Events and Pending after each run-control step, and the next rng draw.
// Processes start through At, Go and AtEach, whose reference is the same
// arrivals scheduled by At calls in index order.
// The same program then runs on a two-shard ShardGroup, which must log
// identically at one and two workers and as the same two shards of the
// reference engine run through refShardGroup's windows.
func FuzzEngineDifferential(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		code := make([]byte, 16+rng.Intn(256))
		rng.Read(code)
		f.Add(seed, code)
	}
	f.Fuzz(func(t *testing.T, seed int64, code []byte) {
		if len(code) == 0 {
			return
		}
		compareLogs(t, "runner engine vs reference", diffOnEngine(seed, code), diffOnReference(seed, code))
		one, two := diffOnShards(seed, code, 1), diffOnShards(seed, code, 2)
		compareLogs(t, "2-shard group at 1 worker vs reference", one, diffOnReferenceShards(seed, code))
		compareLogs(t, "2-shard group at 1 vs 2 workers", one, two)
	})
}

func compareLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			from := max(0, i-5)
			t.Fatalf("%s: logs diverge at line %d:\n got: %q\nwant: %q\ncommon prefix tail: %q",
				what, i, got[i], want[i], want[from:i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d log lines, want %d", what, len(got), len(want))
	}
}

// diffProc is what a program needs of a process; *Proc and *refProc have it.
type diffProc interface {
	Now() time.Duration
	Sleep(d time.Duration)
	Yield()
	Park()
}

// diffEngine is what a program needs of an engine; *Engine and *refEngine
// have it.
type diffEngine[P diffProc] interface {
	Now() time.Duration
	Rand() *rand.Rand
	Go(name string, fn func(P)) P
	At(t time.Duration, name string, fn func(P)) P
	AtEach(name string, n int, at func(i int) time.Duration, body func(p P, i int))
	After(d time.Duration, fn func())
	Resume(p P)
	Shutdown()
	Events() int64
	Pending() int
}

// diffPrims are one side's two resources behind closures, so one
// interpreter drives the types of either engine.
type diffPrims[P diffProc] struct {
	id         func(p P) int
	acquire    func(k int, p P, n int)
	tryAcquire func(k, n int) bool
	release    func(k, n int)
	state      func() string
}

// diffCaps are the capacities of the two resources.
var diffCaps = [2]int{1, 3}

// diffResource is what a snapshot reads of a resource; *Resource and
// *refResource have it.
type diffResource interface {
	InUse() int
	Queued() int
	MeanWait() time.Duration
}

// resourceState renders both resources for a snapshot line.
func resourceState[R diffResource](res [2]R) string {
	s := ""
	for k, r := range res {
		s += fmt.Sprintf(" res%d=%d/%d/%v", k, r.InUse(), r.Queued(), r.MeanWait())
	}
	return s
}

func enginePrims(e *Engine) diffPrims[*Proc] {
	res := [2]*Resource{NewResource("r0", diffCaps[0]), NewResource("r1", diffCaps[1])}
	return diffPrims[*Proc]{
		id:         func(p *Proc) int { return p.id },
		acquire:    func(k int, p *Proc, n int) { res[k].Acquire(p, n) },
		tryAcquire: func(k, n int) bool { return res[k].TryAcquire(n) },
		release:    func(k, n int) { res[k].Release(e, n) },
		state:      func() string { return resourceState(res) },
	}
}

func referencePrims(e *refEngine) diffPrims[*refProc] {
	res := [2]*refResource{newRefResource("r0", diffCaps[0]), newRefResource("r1", diffCaps[1])}
	return diffPrims[*refProc]{
		id:         func(p *refProc) int { return p.id },
		acquire:    func(k int, p *refProc, n int) { res[k].Acquire(p, n) },
		tryAcquire: func(k, n int) bool { return res[k].TryAcquire(n) },
		release:    func(k, n int) { res[k].Release(e, n) },
		state:      func() string { return resourceState(res) },
	}
}

// Program bounds keep every input fast and every run finite: processes
// run a bounded number of steps and spawn a bounded number of others, and
// no callback reschedules itself.
const (
	diffMaxProcs = 32
	diffMaxSteps = 16
)

// diffRun interprets a program on one engine. A process's script is the
// code read two bytes (op, argument) at a time from its start offset,
// wrapping around. Ops that wake others outnumber ops that block, so
// scripts tend to run on rather than all park at once.
type diffRun[P diffProc] struct {
	eng     diffEngine[P]
	pr      diffPrims[P]
	code    []byte
	log     []string
	parked  []P // processes parked by op 3, resumed first in first out
	spawned int
	// send schedules a callback on the peer shard; nil on a lone engine.
	send func(delay time.Duration, v int)
}

func (d *diffRun[P]) at(i int) int { return int(d.code[i%len(d.code)]) }

func (d *diffRun[P]) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("%v ", d.eng.Now())+fmt.Sprintf(format, args...))
}

// spawn starts a process at now+delay (through Go when delay is 0) whose
// script begins at offset pc.
func (d *diffRun[P]) spawn(delay time.Duration, pc int) {
	if d.spawned >= diffMaxProcs {
		return
	}
	d.spawned++
	body := func(p P) { d.body(p, pc) }
	if delay == 0 {
		d.eng.Go("diff", body)
		return
	}
	d.eng.At(d.eng.Now()+delay, "diff", body)
}

// spawnBatch starts up to n processes through one AtEach call, at now
// plus delays read from the code at pc, so a batch's times may fall, tie
// or rise. Process i's script begins at offset script+7*i.
func (d *diffRun[P]) spawnBatch(n, pc, script int) {
	n = min(n, diffMaxProcs-d.spawned)
	if n <= 0 {
		return
	}
	d.spawned += n
	now := d.eng.Now()
	d.eng.AtEach("diff", n,
		func(i int) time.Duration { return now + time.Duration(d.at(pc+i)%8)*time.Millisecond },
		func(p P, i int) { d.body(p, script+7*i) })
}

func (d *diffRun[P]) body(p P, pc int) {
	id := d.pr.id(p)
	var held [2]int
	finished := false
	defer func() { d.logf("p%d exit finished=%v held=%v", id, finished, held) }()
	for step := 0; step < diffMaxSteps; step++ {
		op, a := d.at(pc)%16, d.at(pc+1)
		pc += 2
		d.logf("p%d step %d op %d arg %d", id, step, op, a)
		k := a % 2
		switch op {
		case 0, 1:
			p.Sleep(time.Duration(a%5) * time.Millisecond)
		case 2:
			p.Yield()
		case 3:
			d.parked = append(d.parked, p)
			p.Park()
			d.logf("p%d unparked", id)
		case 4, 5:
			d.resumeParked()
		case 6:
			n := 1 + (a/2)%diffCaps[k]
			d.pr.acquire(k, p, n)
			held[k] += n
		case 7:
			if n := 1 + (a/2)%diffCaps[k]; d.pr.tryAcquire(k, n) {
				held[k] += n
			}
		case 8, 9:
			for j := range held {
				if held[j] > 0 {
					d.pr.release(j, held[j])
					held[j] = 0
					break
				}
			}
		case 10:
			if a%2 == 0 {
				d.spawn(time.Duration(a%3)*time.Millisecond, pc+a)
			} else {
				d.spawnBatch(1+a%4, pc, pc+a)
			}
		case 11, 12:
			d.eng.After(time.Duration(a%4)*time.Millisecond, func() { d.callback(a) })
		case 13:
			d.logf("p%d drew %d", id, d.eng.Rand().Int63n(1000))
		case 14:
			// Rare, so that most programs run on past their first steps.
			if a%8 == 7 {
				d.logf("shutdown from p%d", id)
				d.eng.Shutdown()
			}
		case 15:
			if d.send != nil {
				d.send(time.Duration(a%3)*time.Millisecond, a)
			}
		}
	}
	finished = true
}

func (d *diffRun[P]) resumeParked() {
	if len(d.parked) == 0 {
		return
	}
	w := d.parked[0]
	d.parked = d.parked[1:]
	d.eng.Resume(w)
}

// callback is an After (or cross-shard) callback: it resumes a parked
// process, then spawns another or, rarely, shuts the engine down.
func (d *diffRun[P]) callback(a int) {
	d.logf("callback %d", a)
	d.resumeParked()
	switch {
	case a%2 == 0:
		d.spawn(0, a)
	case a%32 == 31:
		d.logf("shutdown from callback")
		d.eng.Shutdown()
	}
}

// start spawns the program's first processes, 2-6 of them, through one
// AtEach call with times read from the first bytes of the code.
func (d *diffRun[P]) start() {
	d.spawnBatch(2+d.at(0)%5, 1, 5)
}

func (d *diffRun[P]) snapshot(step string) {
	d.logf("%s events=%d pending=%d%s", step, d.eng.Events(), d.eng.Pending(), d.pr.state())
}

func (d *diffRun[P]) finish() {
	d.snapshot("end")
	d.logf("next draw %d", d.eng.Rand().Int63())
}

// control is the run control a program exercises between its processes:
// an engine's, or a shard group's.
type control struct {
	runUntil func(deadline time.Duration)
	run      func()
	shutdown func()
	now      func() time.Duration
}

// steer runs up to three run-control steps chosen by the code's bytes
// 7-9, then runs to exhaustion and shuts down, calling snap after each.
func steer(code []byte, rc control, snap func(step string)) {
	for i := 0; i < 3; i++ {
		c := int(code[(7+i)%len(code)])
		switch c % 4 {
		case 0, 1:
			rc.runUntil(rc.now() + time.Duration(c%13)*time.Millisecond)
			snap("run-until")
		case 2:
			rc.run()
			snap("run")
		case 3:
			if c%16 == 15 {
				rc.shutdown()
				snap("shutdown")
			}
		}
	}
	rc.run()
	snap("run")
	rc.shutdown()
	snap("shutdown")
}

func diffOnEngine(seed int64, code []byte) []string {
	e := NewEngine(seed)
	d := &diffRun[*Proc]{eng: e, pr: enginePrims(e), code: code}
	d.start()
	steer(code, control{e.RunUntil, e.Run, e.Shutdown, e.Now}, d.snapshot)
	d.finish()
	return d.log
}

func diffOnReference(seed int64, code []byte) []string {
	e := newRefEngine(seed)
	d := &diffRun[*refProc]{eng: e, pr: referencePrims(e), code: code}
	d.start()
	steer(code, control{e.RunUntil, e.Run, e.Shutdown, e.Now}, d.snapshot)
	d.finish()
	return d.log
}

// diffGroup is what a program needs of a shard group; *ShardGroup and
// *refShardGroup have it.
type diffGroup[P diffProc, E diffEngine[P]] interface {
	Shard(i int) E
	Send(from, to int, delay time.Duration, fn func())
	Lookahead() time.Duration
	RunUntil(deadline time.Duration)
	Run()
	Shutdown()
	Now() time.Duration
	Windows() int64
	Messages() int64
	Events() int64
}

func diffOnShards(seed int64, code []byte, workers int) []string {
	g := NewShardGroup(seed, 2, time.Millisecond)
	g.SetWorkers(workers)
	return diffOnGroup[*Proc](g, enginePrims, code)
}

func diffOnReferenceShards(seed int64, code []byte) []string {
	return diffOnGroup[*refProc](newRefShardGroup(seed, 2, time.Millisecond), referencePrims, code)
}

// diffOnGroup runs the program on both shards of a two-shard group; op
// 15 sends a callback to the peer shard. The shards' logs are kept apart
// (each is appended only by code on its own shard) and joined at the end.
func diffOnGroup[P diffProc, E diffEngine[P]](g diffGroup[P, E], prims func(E) diffPrims[P], code []byte) []string {
	runs := make([]*diffRun[P], 2)
	for i := range runs {
		e := g.Shard(i)
		runs[i] = &diffRun[P]{eng: e, pr: prims(e), code: code}
	}
	for i, d := range runs {
		from, to := i, 1-i
		d.send = func(delay time.Duration, v int) {
			g.Send(from, to, g.Lookahead()+delay, func() { runs[to].callback(v) })
		}
		d.start()
	}
	snap := func(step string) {
		for _, d := range runs {
			d.snapshot(step)
		}
	}
	steer(code, control{g.RunUntil, g.Run, g.Shutdown, g.Now}, snap)
	var all []string
	for i, d := range runs {
		d.finish()
		all = append(all, fmt.Sprintf("shard %d", i))
		all = append(all, d.log...)
	}
	return append(all, fmt.Sprintf("windows=%d messages=%d events=%d", g.Windows(), g.Messages(), g.Events()))
}
