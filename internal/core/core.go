// Package core is the top-level simulator: it composes a memory-system
// architecture, a set of CPU models, the loaded guest programs and the
// trap handler into a Machine, runs the cycle loop to completion, and
// produces the statistics that the experiment harness turns into the
// paper's figures.
package core

import (
	"fmt"
	"io"
	"sort"

	"cmpsim/internal/asm"
	"cmpsim/internal/check"
	"cmpsim/internal/cpu"
	"cmpsim/internal/cpu/mipsy"
	"cmpsim/internal/event"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/telemetry"
)

// Arch identifies one of the three architecture compositions.
type Arch string

const (
	SharedL1  Arch = "shared-l1"
	SharedL2  Arch = "shared-l2"
	SharedMem Arch = "shared-mem"
)

// Arches lists the three architectures in the paper's presentation order
// (the shared-memory machine is the normalization baseline).
func Arches() []Arch { return []Arch{SharedL1, SharedL2, SharedMem} }

// NewSystem builds the memory system for an architecture.
func NewSystem(a Arch, cfg memsys.Config) (memsys.System, error) {
	switch a {
	case SharedL1:
		return memsys.NewSharedL1(cfg), nil
	case SharedL2:
		return memsys.NewSharedL2(cfg), nil
	case SharedMem:
		return memsys.NewSharedMem(cfg), nil
	}
	return nil, fmt.Errorf("core: unknown architecture %q", a)
}

// Core is a CPU model instance driven by the cycle loop.
type Core interface {
	// Tick advances the core by one cycle and returns a quiescence
	// hint: the earliest cycle after now at which this core might have
	// work (cpu.NoWork if it is now halted). The hint obeys the same
	// asymmetric contract as NextWork — too small only costs no-op
	// ticks — and is returned from Tick so the scheduler's common case
	// (the core is runnable next cycle) costs no extra call: the cycle
	// loop only asks for the verifying NextWork proof when the hint
	// clears now+1.
	Tick(now uint64) uint64
	Done() bool
	Stats() cpu.StallStats
	Context() *cpu.Context
	FlushFetchBuffer()

	// NextWork returns the earliest cycle at or after now at which Tick
	// could make progress or have any observable side effect, assuming
	// no external state changes first; cpu.NoWork if the core is halted.
	// The quiescence-skipping scheduler parks the core until then, so
	// the contract is asymmetric: a value that is too small merely costs
	// no-op ticks, while a value that is too large would change
	// simulation output. The external changes the scheduler watches for
	// are event callbacks and IRQ deliveries; another core's tick must
	// never shorten a core's NextWork. Models return now+1
	// whenever they cannot cheaply prove a longer quiescent window.
	NextWork(now uint64) uint64
}

// cycleSkipper is implemented by CPU models whose per-cycle accounting
// must be backfilled across a skipped window. MXS charges one stall
// cycle of blame per zero-graduation cycle; a skipped cycle still
// happened architecturally, so the scheduler reports every parked span
// to the model, in pieces that add up to the whole span, before anyone
// reads the model's counters. It is resolved from Machine.CPUs at each
// backfill, so wrappers installed after construction take part.
type cycleSkipper interface {
	SkipCycles(from, to uint64)
}

// codeEntry is one loaded program's decoded text.
type codeEntry struct {
	base   uint32
	end    uint32
	insts  []isa.Inst
	labels map[uint32][]string // physical address → text labels, for Dump
}

// CodeRegistry resolves physical addresses to decoded instructions over
// all loaded programs. It is immutable once the programs are loaded, so
// all CPUs share it safely; the per-fetch lookup memo lives in the
// per-CPU CodeCursor each core fetches through.
type CodeRegistry struct {
	entries []codeEntry
}

// Register adds p's text, relocated by physBias, to the registry.
func (r *CodeRegistry) Register(p *asm.Program, physBias uint32) {
	e := codeEntry{
		base:   physBias + p.TextBase,
		end:    physBias + p.TextEnd(),
		insts:  p.Insts,
		labels: make(map[uint32][]string),
	}
	for _, s := range p.Symbols() {
		if s.Text {
			e.labels[physBias+s.Start] = append(e.labels[physBias+s.Start], s.Name)
		}
	}
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].base < r.entries[j].base })
}

// Dump writes a disassembly listing of every registered program region
// to w: one line per instruction with its physical address, annotated
// with the assembler's function and branch-target labels.
func (r *CodeRegistry) Dump(w io.Writer) {
	for _, e := range r.entries {
		fmt.Fprintf(w, "; region %#08x..%#08x (%d instructions)\n", e.base, e.end, len(e.insts))
		for i, in := range e.insts {
			addr := e.base + uint32(4*i)
			for _, l := range e.labels[addr] {
				fmt.Fprintf(w, "%s:\n", l)
			}
			fmt.Fprintf(w, "%08x:  %s\n", addr, in)
		}
	}
}

// InstAt implements cpu.CodeSource by plain scan, with no lookup memo —
// the registry stays read-only after loading. Cores fetch through a
// Cursor instead, which adds the last-hit cache without sharing it.
func (r *CodeRegistry) InstAt(paddr uint32) (isa.Inst, bool) {
	for i := range r.entries {
		e := &r.entries[i]
		if paddr >= e.base && paddr < e.end {
			return e.insts[(paddr-e.base)/4], true
		}
	}
	return isa.Inst{}, false
}

// Cursor returns a per-CPU fetch view of the registry. The cursor
// caches the last entry hit, which covers almost every fetch thanks to
// code locality; keeping the memo per-CPU (rather than on the shared
// registry, as it originally was) means concurrent ticks never write
// shared state on the fetch path.
func (r *CodeRegistry) Cursor() *CodeCursor { return &CodeCursor{reg: r} }

// CodeCursor is one core's private window onto the shared CodeRegistry.
//
//simlint:owned per-cpu — every core gets its own cursor from Machine's newCore
type CodeCursor struct {
	reg  *CodeRegistry
	last int
}

// InstAt implements cpu.CodeSource.
func (c *CodeCursor) InstAt(paddr uint32) (isa.Inst, bool) {
	entries := c.reg.entries
	if c.last < len(entries) {
		if e := &entries[c.last]; paddr >= e.base && paddr < e.end {
			return e.insts[(paddr-e.base)/4], true
		}
	}
	for i := range entries {
		e := &entries[i]
		if paddr >= e.base && paddr < e.end {
			c.last = i
			return e.insts[(paddr-e.base)/4], true
		}
	}
	return isa.Inst{}, false
}

// CPUModel selects the CPU simulator.
type CPUModel string

const (
	ModelMipsy CPUModel = "mipsy"
	ModelMXS   CPUModel = "mxs"
)

// Machine is a fully composed simulated system.
type Machine struct {
	Arch  Arch
	Cfg   memsys.Config
	Img   *mem.Image
	Sys   memsys.System
	Code  *CodeRegistry
	Trap  cpu.TrapHandler
	CPUs  []Core
	Model CPUModel

	// Events is the machine's discrete-event calendar; events fire at
	// the top of their cycle, before any CPU ticks. The guest kernel
	// uses it for preemption timers.
	Events event.Queue

	// irq holds the per-CPU external interrupt lines behind the
	// grid-boundary delivery protocol (see irqLines): event-phase raises
	// land on the live lines immediately, tick-phase raises are buffered
	// and merged onto the live lines at the next SimWindow grid
	// boundary.
	irq irqLines

	// inTick distinguishes the two loop phases for RaiseIRQ: false while
	// event callbacks run (raises deliver immediately, as the guest
	// kernel's preemption timers always have), true while CPUs tick
	// (raises buffer until the next grid boundary).
	inTick bool

	// wake and parkedAt are the per-CPU quiescence state of RunWindow:
	// wake[id] != 0 means CPU id is parked — not ticked before cycle
	// wake[id] — and parkedAt[id] is the first parked cycle whose stall
	// accounting has not been backfilled yet. Sized on the first
	// RunWindow call and cleared at the end of every call.
	wake     []uint64
	parkedAt []uint64

	// skipped counts the cycles the quiescence-skipping scheduler
	// fast-forwarded over with every CPU parked; parked counts the
	// per-CPU cycles parked CPUs sat out. Both are pure speed metrics:
	// simulated time is identical with skipping disabled.
	skipped uint64
	parked  uint64

	// syms is the machine-wide physical-address symbol table, collected
	// from every loaded program (relocated by its load bias) so a
	// profile snapshot can resolve physical PCs and data addresses back
	// to assembler labels.
	syms []prof.Symbol

	// NewCore builds a CPU for the machine; set by the model selection in
	// NewMachine and used by AddContext.
	newCore func(id int, ctx *cpu.Context) Core
}

// irqLines is the per-CPU external-interrupt state under the
// grid-boundary delivery protocol:
//
//   - live are the delivered lines. Each line is read
//     (PendingInterrupt) and cleared (AckInterrupt) only by its own
//     CPU, and set by event callbacks and grid-boundary merges.
//   - pending buffers raises made from tick phase (a trap handler
//     running under some CPU's tick); merge promotes them to live at
//     the next SimWindow grid boundary.
//
// The arbitration points are the methods below, declared as such for
// the sharedmut analyzer.
type irqLines struct {
	live    []bool
	pending []bool
	npend   int // live count of buffered raises; bounds the quiescence skip to the next merge
}

// raise asserts a line: immediately in coordinator phase, buffered to
// the next grid boundary from tick phase.
//
//simlint:arbiter
func (q *irqLines) raise(cpuID int, tickPhase bool) {
	if tickPhase {
		if !q.pending[cpuID] {
			q.pending[cpuID] = true
			q.npend++
		}
		return
	}
	q.live[cpuID] = true
}

// ack clears a CPU's own live line (interrupt taken).
//
//simlint:arbiter
func (q *irqLines) ack(cpuID int) { q.live[cpuID] = false }

// merge promotes buffered tick-phase raises onto the live lines; called
// at SimWindow grid boundaries. It reports whether any line was
// delivered.
//
//simlint:arbiter
func (q *irqLines) merge() bool {
	if q.npend == 0 {
		return false
	}
	for i, p := range q.pending {
		if p {
			q.live[i] = true
			q.pending[i] = false
		}
	}
	q.npend = 0
	return true
}

// RaiseIRQ asserts the external interrupt line of a CPU; the CPU takes
// the interrupt at its next instruction boundary (Mipsy) or after
// draining its pipeline (MXS). Raised from an event callback (the
// kernel's preemption timers) the line is live the same cycle; raised
// from tick phase it is buffered and delivered at the next SimWindow
// grid boundary.
func (m *Machine) RaiseIRQ(cpuID int) { m.irq.raise(cpuID, m.inTick) }

// PendingInterrupt implements cpu.InterruptSource.
func (m *Machine) PendingInterrupt(cpuID int) bool { return m.irq.live[cpuID] }

// AckInterrupt implements cpu.InterruptSource.
func (m *Machine) AckInterrupt(cpuID int) { m.irq.ack(cpuID) }

// interruptible is implemented by CPU models that poll an external
// interrupt line.
type interruptible interface {
	SetInterruptSource(cpu.InterruptSource)
}

// NewMachine builds a machine with the given architecture, memory-system
// configuration, CPU model and physical memory size, rejecting a config
// that fails Config.Validate. Contexts are added with AddContext;
// programs with LoadProgram.
func NewMachine(a Arch, model CPUModel, cfg memsys.Config, memBytes uint32) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == ModelMXS {
		cfg = cfg.MXS()
	}
	sys, err := NewSystem(a, cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Arch:  a,
		Cfg:   cfg,
		Img:   mem.NewImage(memBytes),
		Sys:   sys,
		Code:  &CodeRegistry{},
		Trap:  cpu.NopTrap{},
		Model: model,
		irq: irqLines{
			live:    make([]bool, cfg.NumCPUs),
			pending: make([]bool, cfg.NumCPUs),
		},
	}
	switch model {
	case ModelMipsy:
		m.newCore = func(id int, ctx *cpu.Context) Core {
			c := mipsy.New(id, ctx, m.Sys, m.Code.Cursor(), m.Trap, m.Img, cfg.LineBytes)
			if cfg.Prof != nil {
				c.SetProfiler(cfg.Prof)
			}
			return c
		}
	case ModelMXS:
		if newMXSCore == nil {
			return nil, fmt.Errorf("core: MXS model not linked")
		}
		m.newCore = func(id int, ctx *cpu.Context) Core {
			return newMXSCore(id, ctx, m, cfg)
		}
	default:
		return nil, fmt.Errorf("core: unknown CPU model %q", model)
	}
	return m, nil
}

// newMXSCore is set by the mxs glue file; separated so the core package
// compiles while the detailed model is plugged in.
var newMXSCore func(id int, ctx *cpu.Context, m *Machine, cfg memsys.Config) Core

// SetTrapHandler installs the guest kernel's trap handler. Must be
// called before AddContext so the CPUs capture it.
func (m *Machine) SetTrapHandler(t cpu.TrapHandler) { m.Trap = t }

// sharedDataSetter is implemented by memory systems with a per-region
// L1 write policy (the shared-L2 architecture).
type sharedDataSetter interface {
	SetSharedData(func(addr uint32) bool)
}

// SetSharedData declares which physical addresses hold shared data (the
// rest is thread-private). Architectures without a per-region policy
// ignore it.
func (m *Machine) SetSharedData(f func(addr uint32) bool) {
	if s, ok := m.Sys.(sharedDataSetter); ok {
		s.SetSharedData(f)
	}
}

// LoadProgram writes p into physical memory at physBias and registers
// its text for instruction fetch.
func (m *Machine) LoadProgram(p *asm.Program, physBias uint32) {
	p.Load(m.Img, physBias)
	m.Code.Register(p, physBias)
	m.addSymbols(p, physBias, true)
}

// LoadText loads and registers only p's text at physBias — for programs
// whose text is shared by several processes while each has a private
// copy of the data section (loaded with p.LoadDataAt).
func (m *Machine) LoadText(p *asm.Program, physBias uint32) {
	p.LoadText(m.Img, physBias)
	m.Code.Register(p, physBias)
	m.addSymbols(p, physBias, false)
}

// addSymbols merges p's symbol table, relocated by physBias, into the
// machine-wide table. Data symbols are skipped when the data section
// was not loaded at physBias (LoadText: each process places its data
// elsewhere, so the biased addresses would be wrong).
func (m *Machine) addSymbols(p *asm.Program, physBias uint32, withData bool) {
	for _, s := range p.Symbols() {
		if !s.Text && !withData {
			continue
		}
		m.syms = append(m.syms, prof.Symbol{
			Name:  s.Name,
			Start: physBias + s.Start,
			End:   physBias + s.End,
			Text:  s.Text,
		})
	}
	// Ordering observability metadata (prof.Symbol) at program-load
	// time, before the first tick; the data never reaches simulation.
	sort.SliceStable(m.syms, func(i, j int) bool {
		if m.syms[i].Start != m.syms[j].Start { //simlint:allow neutral — load-time symbol-table ordering
			return m.syms[i].Start < m.syms[j].Start
		}
		return m.syms[i].Name < m.syms[j].Name //simlint:allow neutral — load-time symbol-table ordering
	})
}

// AddContext creates a CPU (with the machine's model) running ctx.
func (m *Machine) AddContext(ctx *cpu.Context) Core {
	c := m.newCore(len(m.CPUs), ctx)
	if i, ok := c.(interruptible); ok {
		i.SetInterruptSource(m)
	}
	m.CPUs = append(m.CPUs, c)
	return c
}

// RunResult summarizes a completed simulation.
type RunResult struct {
	Arch      Arch
	Model     CPUModel
	Cycles    uint64
	PerCPU    []cpu.StallStats
	MemReport memsys.Report
	Metrics   *obsv.Metrics // interval time-series, when sampling was enabled
	Profile   *prof.Profile `json:",omitempty"` // cycle attribution, when profiling was enabled
}

// Instructions returns total instructions executed across all CPUs.
func (r *RunResult) Instructions() uint64 {
	var t uint64
	for _, s := range r.PerCPU {
		t += s.Instructions
	}
	return t
}

// IPC returns aggregate instructions per cycle across all CPUs.
func (r *RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// RunWindow advances the machine from cycle start for at most n cycles.
// It returns the first cycle not executed, whether every CPU has halted,
// and any guest fault. CPU service order rotates each cycle so no
// processor gets a standing arbitration advantage.
//
// Quiescence skipping is per CPU (DESIGN.md §6). A CPU whose tick hint
// clears the next cycle, and whose NextWork proof agrees, is parked
// until its wake cycle and not ticked in between: its skipped ticks
// would have been no-ops. When every running CPU is parked the loop
// jumps straight to the earliest wake (nextCycle). An event firing or a
// grid-boundary IRQ merge can create work for a parked CPU, so either
// wakes every CPU on the spot. Models that charge per-cycle stall blame
// (cycleSkipper) are backfilled lazily for the parked span: before the
// CPU's next tick, before a sampler probe and at window end.
func (m *Machine) RunWindow(start, n uint64) (next uint64, halted bool, err error) {
	if len(m.CPUs) == 0 {
		return start, false, fmt.Errorf("core: machine has no CPUs")
	}
	cpus := len(m.CPUs)
	if len(m.wake) != cpus {
		m.wake = make([]uint64, cpus)
		m.parkedAt = make([]uint64, cpus)
	}
	mets := m.Cfg.Metrics
	noSkip := m.Cfg.NoSkip
	grid := m.gridSize()
	end := start + n
	cyc := start
	// Host telemetry: executed iterations accumulate locally and flush
	// to the shared atomic counters in batches, so the per-cycle cost of
	// enabled telemetry is one branch and one register increment, and
	// the disabled path is the nil check alone. Skipped cycles flush as
	// deltas of m.skipped and m.parked so the counters stay live
	// mid-window.
	tel := m.Cfg.Telem
	var telTicked uint64
	telSkipBase, telParkBase := m.skipped, m.parked
	if tel != nil {
		tel.Windows.Inc()
	}
	for cyc < end {
		if cyc%grid == 0 && m.irq.merge() {
			m.wakeAll(cyc)
		}
		if ev, ok := m.Events.NextCycle(); ok && ev <= cyc {
			m.Events.RunUntil(cyc)
			m.wakeAll(cyc)
		}
		m.inTick = true
		alive := false
		// soonest is the earliest cycle any running CPU next needs a
		// tick: cyc+1 for a CPU that stays on the per-cycle path, the
		// wake cycle for a parked one.
		soonest := uint64(cpu.NoWork)
		// Rotate in uint64 so multi-billion-cycle runs can't skew the
		// arbitration order through a narrowing conversion on 32-bit ints.
		off := int(cyc % uint64(cpus))
		for i := 0; i < cpus; i++ {
			id := (i + off) % cpus
			c := m.CPUs[id]
			if c.Done() {
				continue
			}
			alive = true
			if w := m.wake[id]; w != 0 {
				if w > cyc {
					if w < soonest {
						soonest = w
					}
					continue
				}
				m.unpark(id, cyc)
			}
			w := c.Tick(cyc)
			if w > cyc+1 && !noSkip {
				w = m.park(id, cyc)
			}
			if w < soonest {
				soonest = w
			}
		}
		m.inTick = false
		// A due sample first brings parked CPUs' stall accounting up to
		// date, so the probe reads the counters of the per-cycle loop.
		// The sampler decides only when parked cycles are charged, never
		// what they total: SkipCycles charges add up across split spans.
		//simlint:allow neutral — backfill timing only; totals byte-identical (see skip-vs-no-skip tests)
		if mets != nil && mets.Due(cyc) {
			m.backfill(cyc + 1)
			mets.Record(m.probe(cyc))
		}
		if !alive {
			break
		}
		if noSkip || soonest <= cyc+1 {
			cyc++
		} else {
			cyc = m.nextCycle(cyc, soonest, end, mets)
		}
		if tel != nil {
			telTicked++
			if telTicked >= 1<<20 {
				tel.CyclesTicked.Add(telTicked)
				telTicked = 0
				telSkipBase, telParkBase = m.flushSkips(tel, telSkipBase, telParkBase)
			}
		}
	}
	m.backfill(cyc)
	clear(m.wake)
	if tel != nil {
		tel.CyclesTicked.Add(telTicked)
		m.flushSkips(tel, telSkipBase, telParkBase)
	}
	for _, c := range m.CPUs {
		if f := c.Context().Fault; f != "" {
			return cyc, false, fmt.Errorf("core: cpu fault: %s", f)
		}
	}
	allHalted := true
	for _, c := range m.CPUs {
		if !c.Done() {
			allHalted = false
			break
		}
	}
	return cyc, allHalted, nil
}

// park tries to take CPU id off the per-cycle path after its tick at
// cyc returned a hint past cyc+1, and returns the cycle at which the
// CPU next needs a tick. The hint is re-verified against the CPU's own
// NextWork proof, and a live IRQ line keeps the CPU on the per-cycle
// path so delivery timing is untouched. A parked CPU stays parked until
// its wake cycle unless an event or an IRQ merge wakes it earlier.
func (m *Machine) park(id int, cyc uint64) uint64 {
	step := cyc + 1
	if id < len(m.irq.live) && m.irq.live[id] {
		return step
	}
	w := m.CPUs[id].NextWork(cyc)
	if w <= step {
		return step
	}
	m.wake[id] = w
	m.parkedAt[id] = step
	return w
}

// unpark returns CPU id to the per-cycle path at cycle cyc, charging
// the cycles it sat out.
func (m *Machine) unpark(id int, cyc uint64) {
	m.skipCycles(id, cyc)
	m.wake[id] = 0
}

// skipCycles charges CPU id's parked cycles before cycle to, then
// restarts its parked span at to. Only models with per-cycle stall
// accounting need the charge; the count feeds the local-skip telemetry.
func (m *Machine) skipCycles(id int, to uint64) {
	from := m.parkedAt[id]
	if to <= from {
		return
	}
	c := m.CPUs[id]
	if !c.Done() {
		if s, ok := c.(cycleSkipper); ok {
			s.SkipCycles(from, to)
		}
		m.parked += to - from
	}
	m.parkedAt[id] = to
}

// backfill brings every parked CPU's stall accounting up to cycle to,
// so a probe or the window's caller sees the counters a per-cycle run
// would have produced.
func (m *Machine) backfill(to uint64) {
	for id, w := range m.wake {
		if w != 0 {
			m.skipCycles(id, to)
		}
	}
}

// wakeAll returns every parked CPU to the per-cycle path from cycle
// cyc: an event callback or a newly live IRQ line may have given any of
// them work their NextWork proofs did not foresee.
func (m *Machine) wakeAll(cyc uint64) {
	for id, w := range m.wake {
		if w > cyc {
			m.wake[id] = cyc
		}
	}
}

// flushSkips adds the skipped and parked cycles counted since the given
// bases to the telemetry counters and returns the new bases.
func (m *Machine) flushSkips(tel *telemetry.SimMetrics, skipBase, parkBase uint64) (uint64, uint64) {
	if m.skipped > skipBase {
		tel.CyclesSkipped.Add(m.skipped - skipBase)
	}
	if m.parked > parkBase {
		tel.LocalSkipped.Add(m.parked - parkBase)
	}
	return m.skipped, m.parked
}

// nextCycle is the slow path of the quiescence skip, entered only when
// every running CPU is parked past cyc+1; soonest is the earliest wake.
// It returns the cycle the loop should execute next: the earliest wake,
// bounded by the next event, the next grid boundary while tick-phase
// raises wait to merge, the sampler's next due cycle and end. Nothing
// is ticked inside the jumped span, so nothing scheduled from inside it
// can exist; the parked CPUs' stall accounting is backfilled lazily.
// Rotation offsets stay correct for free: off derives from the actual
// cycle number.
func (m *Machine) nextCycle(cyc, soonest, end uint64, mets *obsv.Metrics) uint64 {
	step := cyc + 1
	running := false
	for _, c := range m.CPUs {
		if !c.Done() {
			running = true
			break
		}
	}
	if !running {
		// Every CPU halted during the cycle just executed; let the loop
		// run the next cycle per-cycle so its !alive break (and any
		// final events or sample) happen exactly as without skipping.
		return step
	}
	target := soonest
	if ev, ok := m.Events.NextCycle(); ok && ev < target {
		target = ev
	}
	if m.irq.npend > 0 {
		// Buffered tick-phase raises deliver at the next grid boundary;
		// the skip must not jump over the merge.
		if b := gridNext(cyc, m.gridSize()); b < target {
			target = b
		}
	}
	if mets != nil {
		// The sampler's next due cycle bounds the quiescence skip so
		// interval samples land on schedule. This is the tree's one
		// sanctioned obs→sim dataflow: it changes only how the loop
		// advances time, never what any cycle computes, and the
		// output-identity tests pin byte-equal results with and without
		// sampling attached.
		//simlint:allow neutral — skip bound only; output byte-identical (see output-identity tests)
		if due := mets.NextDue(); due < target {
			target = due
		}
	}
	if target > end {
		target = end
	}
	if target <= step {
		return step
	}
	m.skipped += target - step
	return target
}

// gridSize returns the SimWindow interrupt-delivery grid. Grid
// boundaries are absolute cycle numbers (multiples of the grid), so
// where RunWindow calls chop the run into chunks cannot move them —
// checkpoint/resume and single-call runs see identical IRQ merge points.
func (m *Machine) gridSize() uint64 {
	if w := m.Cfg.SimWindow; w > 0 {
		return w
	}
	return memsys.DefaultSimWindow
}

// gridNext returns the first SimWindow grid boundary strictly after c.
func gridNext(c, grid uint64) uint64 { return (c/grid + 1) * grid }

// SkippedCycles returns how many cycles the quiescence-skipping
// scheduler jumped over with every CPU parked, across all RunWindow
// calls.
func (m *Machine) SkippedCycles() uint64 { return m.skipped }

// Run executes the cycle loop until every CPU halts, any context
// faults, or maxCycles elapses.
func (m *Machine) Run(maxCycles uint64) (*RunResult, error) {
	cyc, halted, err := m.RunWindow(0, maxCycles)
	if err != nil {
		return nil, err
	}
	if !halted {
		return nil, fmt.Errorf("core: simulation exceeded %d cycles", maxCycles)
	}
	return m.Result(cyc), nil
}

// Result assembles the run statistics at the given completion cycle.
// When sampling is enabled, the sampler's final partial interval is
// flushed at the run's last cycle so short runs still report samples and
// the interval totals reconcile with the aggregate report.
func (m *Machine) Result(cycles uint64) *RunResult {
	res := &RunResult{
		Arch:      m.Arch,
		Model:     m.Model,
		Cycles:    cycles,
		MemReport: m.Sys.Report(),
	}
	for _, c := range m.CPUs {
		res.PerCPU = append(res.PerCPU, c.Stats())
	}
	if mets := m.Cfg.Metrics; mets != nil {
		mets.Flush(m.probe(cycles))
		res.Metrics = mets
	}
	if pf := m.Cfg.Prof; pf != nil {
		res.Profile = pf.Snapshot(string(m.Arch), string(m.Model), m.syms)
	}
	if chk := m.Cfg.Check; chk != nil {
		// MSHR leak check, after the metrics flush so the probe above saw
		// the true outstanding count: entries may legitimately complete
		// after the last CPU halts, so probe far past the end — anything
		// still in flight at final+DrainSlack was leaked, not late.
		if mp, ok := m.Sys.(mshrProber); ok {
			chk.CheckDrain(cycles, mp.MSHROutstanding(cycles+check.DrainSlack))
		}
	}
	return res
}

// mshrProber is implemented by memory systems that can report their
// instantaneous outstanding-miss count (all three compositions do).
type mshrProber interface {
	MSHROutstanding(now uint64) int
}

// probe snapshots the machine's cumulative counters for the interval
// sampler.
func (m *Machine) probe(cycle uint64) obsv.Probe {
	rep := m.Sys.Report()
	p := obsv.Probe{
		Cycle:   cycle,
		L1DAcc:  rep.L1D.Accesses(),
		L1DMiss: rep.L1D.Misses(),
		L2Acc:   rep.L2.Accesses(),
		L2Miss:  rep.L2.Misses(),
	}
	for _, c := range m.CPUs {
		p.PerCPUInsts = append(p.PerCPUInsts, c.Stats().Instructions)
	}
	for _, r := range rep.Resources {
		p.Resources = append(p.Resources, obsv.ResProbe{
			Name:     r.Name,
			Acquires: r.Acquires,
			Wait:     r.WaitCycles,
			Busy:     r.BusyCycles,
		})
	}
	if mp, ok := m.Sys.(mshrProber); ok {
		p.MSHRInFlight = mp.MSHROutstanding(cycle)
	}
	return p
}
