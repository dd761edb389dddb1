package core

// Scheduler-level tests for the quiescence-skipping cycle loop, using
// stub cores so blocking horizons and tick order are fully controlled.
// The end-to-end output-identity proof lives in the root package's
// skip_test.go; these pin the loop mechanics themselves: rotation
// arbitration at large cycle counts, skip distances, per-CPU parking
// against events, IRQ delivery, sampler boundaries, halts and split
// windows — each against the NoSkip loop, which ticks every CPU every
// cycle.
//
// The TestParallel* cases are the per-CPU edge cases first written for
// the sharded scheduler, where CPUs advanced in parallel between window
// barriers. They keep their names; in the one loop each checks the same
// scenario against per-CPU parking instead of against shard workers.

import (
	"reflect"
	"testing"
	"time"

	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
)

// stubTick records one executed tick: which core ran at which cycle, in
// service order.
type stubTick struct {
	cycle uint64
	id    int
}

// stubCore is a minimal Core: blocked (a pure no-op, like a Mipsy CPU
// waiting on memory) until blockedUntil, then runnable every cycle.
// Runnable ticks are logged to a log shared by all cores, so the log
// observes the service order. Like MXS, it accounts every cycle of its
// life — by a tick or by SkipCycles — in Stats().PipeStall, so a
// missing or misplaced backfill shows in its counters.
type stubCore struct {
	id           int
	blockedUntil uint64
	haltAt       uint64 // halt when ticked at or after this cycle (0 = never)
	raiseAt      uint64 // RaiseIRQ(raiseTo) when ticked at this cycle (0 = never)
	raiseTo      int
	irqWakes     bool      // a live IRQ line unblocks the core after a one-cycle drain
	irqSeen      *[]uint64 // cycles at which this core took its live line
	draining     bool
	halted       bool
	m            *Machine
	log          *[]stubTick
	stats        cpu.StallStats
	ctx          cpu.Context
}

func (s *stubCore) pending() bool {
	return s.irqSeen != nil && s.m.PendingInterrupt(s.id)
}

func (s *stubCore) Tick(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	s.stats.PipeStall++
	if s.irqWakes && s.pending() && now < s.blockedUntil {
		// Like MXS draining its pipeline, the core needs one more tick
		// before it can take the line. Its NextWork proof does not look
		// at the line, so only the scheduler's rule that a live line
		// keeps a CPU on the per-cycle path gets it that tick.
		if !s.draining {
			s.draining = true
			return s.NextWork(now)
		}
		s.draining = false
		s.blockedUntil = now
	}
	if now < s.blockedUntil {
		return s.NextWork(now)
	}
	*s.log = append(*s.log, stubTick{now, s.id})
	s.stats.Instructions++
	if s.pending() {
		*s.irqSeen = append(*s.irqSeen, now)
		s.m.AckInterrupt(s.id)
	}
	if s.raiseAt != 0 && now == s.raiseAt {
		s.m.RaiseIRQ(s.raiseTo)
	}
	if s.haltAt != 0 && now >= s.haltAt {
		s.halted = true
		s.ctx.Halted = true
	}
	return s.NextWork(now)
}

func (s *stubCore) SkipCycles(from, to uint64) { s.stats.PipeStall += to - from }

func (s *stubCore) Done() bool            { return s.halted }
func (s *stubCore) Stats() cpu.StallStats { return s.stats }
func (s *stubCore) Context() *cpu.Context { return &s.ctx }
func (s *stubCore) FlushFetchBuffer()     {}
func (s *stubCore) NextWork(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	if s.blockedUntil > now {
		return s.blockedUntil
	}
	return now
}

// stubMachine builds a Machine around stub cores sharing one tick log.
func stubMachine(cores ...*stubCore) *Machine {
	m := &Machine{}
	m.irq = irqLines{live: make([]bool, len(cores)), pending: make([]bool, len(cores))}
	for _, c := range cores {
		c.m = m
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// schedRun is everything observable about one stub run.
type schedRun struct {
	log     []stubTick
	irqSeen []uint64
	stats   []cpu.StallStats
	next    uint64
	halted  bool
}

// schedCase runs one stub scenario with and without skipping; the two
// runs must agree on everything observable.
type schedCase struct {
	mk    func() []*stubCore // fresh cores; irqSeen non-nil marks an IRQ observer
	grid  uint64
	start uint64
	n     uint64
	setup func(m *Machine) // optional: schedule events before the run
}

func (tc schedCase) run(t *testing.T, noSkip bool) schedRun {
	t.Helper()
	var r schedRun
	cores := tc.mk()
	m := stubMachine(cores...)
	m.Cfg.NoSkip = noSkip
	m.Cfg.SimWindow = tc.grid
	for _, c := range cores {
		c.log = &r.log
		if c.irqSeen != nil {
			c.irqSeen = &r.irqSeen
		}
	}
	if tc.setup != nil {
		tc.setup(m)
	}
	var err error
	r.next, r.halted, err = m.RunWindow(tc.start, tc.n)
	if err != nil {
		t.Fatalf("noSkip=%v: %v", noSkip, err)
	}
	for _, c := range cores {
		r.stats = append(r.stats, c.Stats())
	}
	return r
}

// check requires the skipping run to match the NoSkip reference and
// returns the reference for scenario-specific assertions.
func (tc schedCase) check(t *testing.T) schedRun {
	t.Helper()
	ref := tc.run(t, true)
	got := tc.run(t, false)
	if !reflect.DeepEqual(got.log, ref.log) {
		t.Errorf("tick order diverges:\nskip:    %v\nno-skip: %v", trunc(got.log), trunc(ref.log))
	}
	if !reflect.DeepEqual(got.irqSeen, ref.irqSeen) {
		t.Errorf("IRQ delivery diverges: skip=%v no-skip=%v", got.irqSeen, ref.irqSeen)
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		t.Errorf("per-CPU accounting diverges:\nskip:    %+v\nno-skip: %+v", got.stats, ref.stats)
	}
	if got.next != ref.next || got.halted != ref.halted {
		t.Errorf("stop state = (%d, %v), no-skip (%d, %v)", got.next, got.halted, ref.next, ref.halted)
	}
	return ref
}

func trunc(l []stubTick) []stubTick {
	if len(l) > 24 {
		return l[:24]
	}
	return l
}

// TestRotationOffsetAtLargeCycles pins the arbitration rotation beyond
// 2^32 cycles: the offset must be computed in uint64 (a narrowing
// int(cyc) would skew the rotation wherever int is 32 bits wide).
func TestRotationOffsetAtLargeCycles(t *testing.T) {
	var log []stubTick
	cores := []*stubCore{{id: 0, log: &log}, {id: 1, log: &log}, {id: 2, log: &log}}
	m := stubMachine(cores...)
	start := uint64(3)<<32 + 5
	if _, _, err := m.RunWindow(start, 2); err != nil {
		t.Fatal(err)
	}
	var want []stubTick
	for cyc := start; cyc < start+2; cyc++ {
		off := int(cyc % 3)
		for i := 0; i < 3; i++ {
			want = append(want, stubTick{cyc, (i + off) % 3})
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("service order = %v, want %v", log, want)
	}
}

// TestSkipJumpsBlockedWindow: with every core blocked, the loop must
// jump straight to the earliest wake-up cycle — and with NoSkip it must
// grind through every cycle — with identical executed ticks either way.
func TestSkipJumpsBlockedWindow(t *testing.T) {
	run := func(noSkip bool) ([]stubTick, uint64) {
		var log []stubTick
		m := stubMachine(
			&stubCore{id: 0, blockedUntil: 1000, haltAt: 1001, log: &log},
			&stubCore{id: 1, blockedUntil: 1200, haltAt: 1200, log: &log},
		)
		m.Cfg.NoSkip = noSkip
		next, halted, err := m.RunWindow(0, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if !halted {
			t.Fatalf("noSkip=%v: machine should have halted, stopped at %d", noSkip, next)
		}
		return log, m.SkippedCycles()
	}
	skipLog, skipped := run(false)
	refLog, refSkipped := run(true)
	if !reflect.DeepEqual(skipLog, refLog) {
		t.Errorf("executed ticks diverge:\nskip:    %v\nno-skip: %v", skipLog, refLog)
	}
	if refSkipped != 0 {
		t.Errorf("NoSkip run skipped %d cycles, want 0", refSkipped)
	}
	if skipped == 0 {
		t.Error("skipping run reports 0 skipped cycles; the jump never happened")
	}
	// Cycle 0 ticks both blocked cores (no-ops), then the loop may jump
	// to 1000; core 0 runs cycles 1000-1001, core 1 wakes at 1200.
	if len(skipLog) == 0 || skipLog[0].cycle != 1000 {
		t.Fatalf("first executed tick = %+v, want cycle 1000", skipLog[:min(len(skipLog), 1)])
	}
}

// TestEventChainAcrossSkip: an event at cycle N scheduling one at N+k
// must never be jumped over, even when every CPU sleeps far beyond it —
// each executed cycle re-bounds the next jump by Events.NextCycle.
func TestEventChainAcrossSkip(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, blockedUntil: 10000, log: &log})
	var fired []uint64
	m.Events.Schedule(5, func(at uint64) {
		fired = append(fired, at)
		m.Events.Schedule(12, func(at2 uint64) {
			fired = append(fired, at2)
			m.Events.Schedule(40, func(at3 uint64) { fired = append(fired, at3) })
		})
	})
	if _, _, err := m.RunWindow(0, 100); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 12, 40}; !reflect.DeepEqual(fired, want) {
		t.Errorf("events fired at %v, want %v", fired, want)
	}
	// Executed cycles: 0 (window start), 5, 12, 40 — the other 96 skipped.
	if got := m.SkippedCycles(); got != 96 {
		t.Errorf("skipped = %d, want 96", got)
	}
}

// TestRunWindowSteadyStateAllocs pins the scheduler's own steady-state
// path — event drain, tick-hint gathering, and the nextCycle
// verification scan with its jump — at zero allocations per window.
func TestRunWindowSteadyStateAllocs(t *testing.T) {
	var log []stubTick
	m := stubMachine(
		&stubCore{id: 0, blockedUntil: 1 << 62, log: &log},
		&stubCore{id: 1, blockedUntil: 1 << 62, log: &log},
	)
	var win uint64
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := m.RunWindow(win*1000, 1000); err != nil {
			t.Fatal(err)
		}
		win++
	})
	if allocs != 0 {
		t.Errorf("RunWindow steady state = %.1f allocs/op, want 0", allocs)
	}
}

// TestMetricsBoundariesNotSkipped: sampler due-cycles bound every jump,
// so the interval time-series has exactly the same sample points with
// skipping as without.
func TestMetricsBoundariesNotSkipped(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, blockedUntil: 60, log: &log})
	m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
	m.Cfg.Metrics = obsv.NewMetrics(10)
	if _, _, err := m.RunWindow(0, 45); err != nil {
		t.Fatal(err)
	}
	var cycles []uint64
	for _, s := range m.Cfg.Metrics.Samples() {
		cycles = append(cycles, s.End)
	}
	if want := []uint64{10, 20, 30, 40}; !reflect.DeepEqual(cycles, want) {
		t.Errorf("sample cycles = %v, want %v", cycles, want)
	}
}

// TestParallelSharedAccessOrder: with every core runnable every cycle,
// the shared tick log must follow the rotation order exactly, with
// skipping on and off.
func TestParallelSharedAccessOrder(t *testing.T) {
	ref := schedCase{
		mk: func() []*stubCore {
			return []*stubCore{{id: 0}, {id: 1}, {id: 2}, {id: 3}}
		},
		grid: 32, start: 5, n: 200,
	}.check(t)
	// And against first principles, not just the NoSkip run.
	if len(ref.log) != 4*200 {
		t.Fatalf("executed %d ticks, want %d", len(ref.log), 4*200)
	}
	i := 0
	for cyc := uint64(5); cyc < 205; cyc++ {
		off := int(cyc % 4)
		for k := 0; k < 4; k++ {
			if want := (stubTick{cyc, (k + off) % 4}); ref.log[i] != want {
				t.Fatalf("access %d = %+v, want %+v", i, ref.log[i], want)
			}
			i++
		}
	}
}

// TestParallelStaggeredBlocking mixes runnable and long-blocked cores,
// so some CPUs are parked while others tick: the executed ticks and
// every core's cycle accounting must match the per-cycle loop.
func TestParallelStaggeredBlocking(t *testing.T) {
	schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0},
				{id: 1, blockedUntil: 150},
				{id: 2, blockedUntil: 70},
				{id: 3, blockedUntil: 260},
			}
		},
		grid: 64, n: 400,
	}.check(t)
}

// TestParallelEventChainAcrossBarriers: an event chain (5 → 12 → 40)
// must fire at exactly those cycles while one CPU is parked far past
// all of them and its peer ticks every cycle. Unlike
// TestEventChainAcrossSkip the loop never jumps here; the events must
// wake the parked CPU without moving its ticks or its accounting.
func TestParallelEventChainAcrossBarriers(t *testing.T) {
	var fired []uint64
	schedCase{
		mk: func() []*stubCore {
			fired = nil
			return []*stubCore{{id: 0, blockedUntil: 10000}, {id: 1}}
		},
		grid: 4096, n: 100,
		setup: func(m *Machine) {
			m.Events.Schedule(5, func(at uint64) {
				fired = append(fired, at)
				m.Events.Schedule(12, func(at2 uint64) {
					fired = append(fired, at2)
					m.Events.Schedule(40, func(at3 uint64) { fired = append(fired, at3) })
				})
			})
		},
	}.check(t)
	if want := []uint64{5, 12, 40}; !reflect.DeepEqual(fired, want) {
		t.Errorf("events fired at %v, want %v", fired, want)
	}
}

// TestParallelEventSplitsGrantedEpoch: an event chain (37 → 41) lands
// while one CPU is parked until far past it and another until 130.
// Each firing wakes every parked CPU, which re-parks after one no-op
// tick; the coordinator-phase IRQ the first event raises must still
// reach CPU 1 at its first runnable tick.
func TestParallelEventSplitsGrantedEpoch(t *testing.T) {
	var fired []uint64
	tc := schedCase{
		mk: func() []*stubCore {
			fired = nil
			return []*stubCore{
				{id: 0, blockedUntil: 10000},
				{id: 1, blockedUntil: 130, irqSeen: &[]uint64{}},
			}
		},
		grid: 4096, n: 300,
		setup: func(m *Machine) {
			m.Events.Schedule(37, func(at uint64) {
				fired = append(fired, at)
				m.RaiseIRQ(1)
				m.Events.Schedule(41, func(at2 uint64) { fired = append(fired, at2) })
			})
		},
	}
	ref := tc.check(t)
	if want := []uint64{37, 41}; !reflect.DeepEqual(fired, want) {
		t.Errorf("events fired at %v, want %v", fired, want)
	}
	if want := []uint64{130}; !reflect.DeepEqual(ref.irqSeen, want) {
		t.Errorf("IRQ observed at %v, want %v", ref.irqSeen, want)
	}
}

// TestParallelSamplerBoundaries: sampler due cycles fall inside one
// CPU's parked span while its peer keeps ticking. The parked CPU's cycle
// accounting must be backfilled before each probe, so every interval
// sample reads the counters of the per-cycle loop.
func TestParallelSamplerBoundaries(t *testing.T) {
	run := func(noSkip bool) ([]obsv.Sample, []cpu.StallStats) {
		var log []stubTick
		cores := []*stubCore{{id: 0, blockedUntil: 55, log: &log}, {id: 1, haltAt: 25, log: &log}}
		m := stubMachine(cores...)
		for i, c := range cores {
			m.CPUs[i] = accountedInsts{c}
		}
		m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
		m.Cfg.NoSkip = noSkip
		m.Cfg.Metrics = obsv.NewMetrics(10)
		if _, _, err := m.RunWindow(0, 60); err != nil {
			t.Fatal(err)
		}
		return m.Cfg.Metrics.Samples(), []cpu.StallStats{cores[0].Stats(), cores[1].Stats()}
	}
	ref, refStats := run(true)
	got, gotStats := run(false)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("interval samples diverge:\nskip:    %+v\nno-skip: %+v", got, ref)
	}
	if !reflect.DeepEqual(gotStats, refStats) {
		t.Errorf("per-CPU accounting diverges: skip=%+v no-skip=%+v", gotStats, refStats)
	}
}

// accountedInsts reports a stub's accounted cycles as its retired
// instructions, the one per-CPU counter the sampler's probe reads, so a
// backfill missing before a probe shows in the samples. It wraps the
// stub the way instrumentation wraps real cores after construction;
// SkipCycles reaches the stub through the embedding.
type accountedInsts struct{ *stubCore }

func (a accountedInsts) Stats() cpu.StallStats {
	s := a.stubCore.stats
	s.Instructions = s.PipeStall
	return s
}

// checkBufferedIRQ runs the tick-phase IRQ scenario: CPU 0 raises CPU
// 1's line at cycle 3 and halts at once, and CPU 2 is parked until 90.
// The raise is buffered and merged onto the live line at the next grid
// boundary (16), so the global jump must stop at the merge. CPU 1 is
// blocked until blocked and, with irqWakes, is an idle core the line
// itself wakes; it must take the line at cycle want.
func checkBufferedIRQ(t *testing.T, blocked uint64, irqWakes bool, want uint64) {
	t.Helper()
	ref := schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0, raiseAt: 3, raiseTo: 1, haltAt: 3},
				{id: 1, blockedUntil: blocked, irqWakes: irqWakes, haltAt: 60, irqSeen: &[]uint64{}},
				{id: 2, blockedUntil: 90},
			}
		},
		grid: 16, n: 128,
	}.check(t)
	if w := []uint64{want}; !reflect.DeepEqual(ref.irqSeen, w) {
		t.Errorf("blocked until %d: IRQ observed at %v, want %v", blocked, ref.irqSeen, w)
	}
}

// TestParallelTickPhaseIRQBuffered: a tick-phase IRQ lands at the grid
// boundary (16) when its target is runnable, and — when the target is
// an idle core the line itself wakes — at 17, after the merge woke it
// and its one-cycle drain.
func TestParallelTickPhaseIRQBuffered(t *testing.T) {
	checkBufferedIRQ(t, 0, false, 16)
	checkBufferedIRQ(t, 1<<40, true, 17)
}

// TestParallelBufferedIRQInGrantedEpoch: a tick-phase IRQ whose merge
// lands while its target is parked until 40 is observed at the
// target's first runnable tick.
func TestParallelBufferedIRQInGrantedEpoch(t *testing.T) {
	checkBufferedIRQ(t, 40, false, 40)
}

// TestParallelCoordinatorPhaseIRQImmediate: an IRQ raised from an
// event callback is live the same cycle, and it must wake a CPU parked
// with no wake cycle of its own (an idle core whose only way out is an
// interrupt). The core drains for a cycle and takes the line at 22.
func TestParallelCoordinatorPhaseIRQImmediate(t *testing.T) {
	ref := schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0, blockedUntil: 1 << 40, irqWakes: true, haltAt: 30, irqSeen: &[]uint64{}},
				{id: 1, haltAt: 50},
			}
		},
		grid: 16, n: 64,
		setup: func(m *Machine) { m.Events.Schedule(21, func(uint64) { m.RaiseIRQ(0) }) },
	}.check(t)
	if want := []uint64{22}; !reflect.DeepEqual(ref.irqSeen, want) {
		t.Errorf("IRQ observed at %v, want %v", ref.irqSeen, want)
	}
}

// TestParallelMidWindowHalt: cores halting at different cycles, some
// of them after parked stretches, must stop the run at the per-cycle
// loop's break cycle.
func TestParallelMidWindowHalt(t *testing.T) {
	ref := schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0, blockedUntil: 20, haltAt: 37},
				{id: 1, blockedUntil: 80, haltAt: 90},
				{id: 2, haltAt: 11},
			}
		},
		grid: 4096, n: 4000,
	}.check(t)
	if !ref.halted || ref.next != 91 {
		t.Errorf("stop = (%d, %v), want (91, true)", ref.next, ref.halted)
	}
}

// TestParallelPeerHaltMidEpoch: a CPU halting while a peer is parked
// must not end the run or strand the parked peer; the run continues to
// the per-cycle loop's stop cycle.
func TestParallelPeerHaltMidEpoch(t *testing.T) {
	schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0, haltAt: 40},
				{id: 1, blockedUntil: 100},
				{id: 2},
			}
		},
		grid: 32, n: 300,
	}.check(t)
}

// TestParallelGateIdempotent: a parked CPU's skipped cycles are charged
// lazily, and the charge points (sampler probe, unpark, window end) can
// meet at one cycle. Repeated or earlier backfills must charge nothing
// more, so each parked cycle is accounted exactly once.
func TestParallelGateIdempotent(t *testing.T) {
	c := &stubCore{id: 0, blockedUntil: 100}
	m := stubMachine(c)
	m.wake = make([]uint64, 1)
	m.parkedAt = make([]uint64, 1)
	if w := m.park(0, 9); w != 100 {
		t.Fatalf("park at 9 = %d, want wake at 100", w)
	}
	m.backfill(30)
	m.backfill(30)
	m.backfill(20)
	m.unpark(0, 30)
	m.skipCycles(0, 30)
	if got := c.stats.PipeStall; got != 20 {
		t.Errorf("charged %d cycles for the parked span 10..30, want 20", got)
	}
	if m.parked != 20 {
		t.Errorf("parked-cycle count = %d, want 20", m.parked)
	}
}

// TestParallelEpochGrantSpansWindows: parked spans that cross several
// grid boundaries, and a run chopped into two RunWindow calls while
// CPUs are parked, must give the tick log, accounting and stop state of
// the per-cycle loop and of one call.
func TestParallelEpochGrantSpansWindows(t *testing.T) {
	schedCase{
		mk: func() []*stubCore {
			return []*stubCore{
				{id: 0, blockedUntil: 200},
				{id: 1, blockedUntil: 210},
				{id: 2},
				{id: 3, blockedUntil: 90},
			}
		},
		grid: 32, n: 300,
	}.check(t)

	mk := func() []*stubCore {
		return []*stubCore{
			{id: 0, blockedUntil: 150, haltAt: 200},
			{id: 1, blockedUntil: 30, haltAt: 260},
			{id: 2, blockedUntil: 120, haltAt: 121},
		}
	}
	whole := schedCase{mk: mk, grid: 64, n: 400}.check(t)
	var r schedRun
	cores := mk()
	m := stubMachine(cores...)
	m.Cfg.SimWindow = 64
	for _, c := range cores {
		c.log = &r.log
	}
	mid, _, err := m.RunWindow(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	r.next, r.halted, err = m.RunWindow(mid, 400-mid)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		r.stats = append(r.stats, c.Stats())
	}
	if !reflect.DeepEqual(r.log, whole.log) {
		t.Errorf("split tick log diverges:\nsplit: %v\nwhole: %v", trunc(r.log), trunc(whole.log))
	}
	if !reflect.DeepEqual(r.stats, whole.stats) {
		t.Errorf("split accounting diverges: split=%+v whole=%+v", r.stats, whole.stats)
	}
	if r.next != whole.next || r.halted != whole.halted {
		t.Errorf("split stop = (%d, %v), whole (%d, %v)", r.next, r.halted, whole.next, whole.halted)
	}
}

// TestSmallGridTickDense: a SimWindow grid far below the default, with
// tick-dense cores that park for a cycle or two between runs of ticks,
// must finish and match the per-cycle loop.
func TestSmallGridTickDense(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		schedCase{
			mk: func() []*stubCore {
				return []*stubCore{{id: 0, blockedUntil: 3}, {id: 1, blockedUntil: 9}}
			},
			grid: 8, n: 200,
		}.check(t)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunWindow did not finish a 200-cycle window on an 8-cycle grid")
	}
}
