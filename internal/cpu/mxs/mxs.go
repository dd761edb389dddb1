// Package mxs implements the paper's detailed CPU model (Sections 2.1,
// 3.1): a 2-way-issue dynamically scheduled superscalar with speculative
// execution and non-blocking memory references. The pipeline is
// decoupled into fetch, execute and graduate stages: up to two
// instructions per cycle are fetched (with 1024-entry BTB prediction and
// wrong-path fetch after mispredictions), dispatched into a 32-entry
// centralized instruction window / reorder buffer, issued out of order
// to fully pipelined functional units with the Table 1 latencies (two
// copies of every unit except the single memory data port), and
// graduated in program order to maintain precise state.
package mxs

import (
	"math"

	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

const (
	fetchWidth  = 2
	issueWidth  = 2
	gradWidth   = 2
	windowSize  = 32
	fetchQueue  = 8
	btbEntries  = 1024
	invalidLine = ^uint32(0)
)

// fetchEntry is one fetched, predicted instruction.
type fetchEntry struct {
	pc        uint32 // virtual PC
	ppc       uint32 // physical PC (profiling attribution)
	inst      isa.Inst
	predNext  uint32 // predicted next PC after this instruction
	predTaken bool
}

// robEntry is one in-flight instruction.
type robEntry struct {
	valid bool
	inst  isa.Inst
	pc    uint32
	ppc   uint32 // physical PC (profiling attribution)

	dispatched bool
	issued     bool
	done       bool
	doneAt     uint64

	// Renamed sources: producer ROB slot or -1 for architectural.
	srcRegs [2]uint8
	srcProd [2]int
	nSrc    int
	dest    uint8

	// Results.
	value  uint32
	fvalue float64

	// Control flow.
	predNext   uint32
	actualNext uint32

	// Memory.
	ea       uint32 // physical address
	eaOK     bool
	memLevel memsys.Level
	fwd      bool // load forwarded from an older store

	// Store data computed at issue, written at graduation.
	storeVal  uint32
	storeFVal float64
}

type btbEntry struct {
	tag    uint32
	target uint32
	valid  bool
}

// CPU is one MXS core.
type CPU struct {
	id   int
	ctx  *cpu.Context
	mem  memsys.System
	code cpu.CodeSource
	trap cpu.TrapHandler
	img  *mem.Image

	lineMask uint32

	// Fetch.
	fetchPC      uint32
	fetchReady   uint64 // I-miss completion gate
	fetchLine    uint32
	fetchLvl     memsys.Level
	fq           []fetchEntry
	fetchStalled bool // stopped at a serializing instruction or fetch fault
	fetchFault   bool

	// Window/ROB ring buffer.
	rob   [windowSize]robEntry
	head  int
	tail  int
	count int
	seq   uint64

	// Rename table: last ROB slot writing each unified register, -1 none.
	writer [64]int

	btb [btbEntries]btbEntry

	irq     cpu.InterruptSource
	irqStop bool // draining the pipeline to take an interrupt

	tr    obsv.Tracer    // optional event tracer; nil means disabled
	prof  *prof.Profiler // optional cycle-attribution profiler; nil means disabled
	stats cpu.StallStats
}

// SetInterruptSource attaches an external interrupt line. Delivery is
// precise: fetch stops, the pipeline drains, then the trap fires with
// the architectural PC as the resume point.
func (c *CPU) SetInterruptSource(src cpu.InterruptSource) { c.irq = src }

// SetTracer attaches an event tracer; pipeline flushes, branch
// mispredictions and window-full dispatch stalls then emit events.
func (c *CPU) SetTracer(tr obsv.Tracer) { c.tr = tr }

// SetProfiler attaches a cycle-attribution profiler: retired
// instructions and blamed stall cycles are charged to physical PCs,
// in lockstep with the StallStats counters. nil (the default) keeps
// the hook sites on their zero-cost path.
func (c *CPU) SetProfiler(p *prof.Profiler) { c.prof = p }

// New builds an MXS core with hardware id executing ctx.
func New(id int, ctx *cpu.Context, sys memsys.System, code cpu.CodeSource, trap cpu.TrapHandler, img *mem.Image, lineBytes uint32) *CPU {
	if trap == nil {
		trap = cpu.NopTrap{}
	}
	c := &CPU{
		id:        id,
		ctx:       ctx,
		mem:       sys,
		code:      code,
		trap:      trap,
		img:       img,
		lineMask:  ^(lineBytes - 1),
		fetchLine: invalidLine,
	}
	c.fetchPC = ctx.PC
	for i := range c.writer {
		c.writer[i] = -1
	}
	return c
}

// Context returns the executing context.
func (c *CPU) Context() *cpu.Context { return c.ctx }

// Stats returns the accumulated statistics.
func (c *CPU) Stats() cpu.StallStats { return c.stats }

// Done reports whether the CPU halted.
func (c *CPU) Done() bool { return c.ctx.Halted }

// FlushFetchBuffer invalidates the fetch line buffer (context switch).
func (c *CPU) FlushFetchBuffer() { c.fetchLine = invalidLine }

// Tick advances the core by one cycle.
func (c *CPU) Tick(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.irq != nil && c.irq.PendingInterrupt(c.id) {
		c.irqStop = true
	}
	if c.irqStop && c.count == 0 {
		c.fq = c.fq[:0]
		c.irq.AckInterrupt(c.id)
		extra := c.trap.Syscall(now, c.id, c.ctx, cpu.IRQ)
		c.flushAll(now)
		c.irqStop = false
		c.fetchPC = c.ctx.PC
		c.fetchReady = now + 1 + extra
		return c.NextWork(now)
	}
	graduated := c.graduate(now)
	c.complete(now)
	c.issue(now)
	c.dispatch(now)
	if !c.irqStop {
		c.fetch(now)
	}
	if graduated == 0 && !c.ctx.Halted {
		c.blame(now)
	}
	// Quiescence hint (see core.Core): a graduating pipeline certainly
	// has per-cycle work, so the full NextWork proof only runs on
	// zero-graduation cycles — the stalls it exists to fast-forward.
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if graduated > 0 {
		return now + 1
	}
	return c.NextWork(now)
}

// NextWork implements the scheduler's quiescence probe: the earliest
// cycle at or after now at which Tick can make progress or have a
// per-cycle side effect beyond stall blame (which SkipCycles backfills).
// The proof is conservative — any state whose wake-up time this scan
// cannot bound returns now+1, which degrades gracefully to the
// per-cycle loop — and sound only because every timed transition in the
// pipeline is driven by a cycle number the scan can see: fetchReady for
// the front end and doneAt for every in-flight instruction. States
// governed by memory-system backpressure instead of a timestamp (write
// buffer or MSHR refusal retries, serializing instructions at the
// head) must be ticked every cycle, both because their retry probes
// have per-cycle side effects (stat charging, refusal trace events)
// and because the retry outcome is not visible from here.
func (c *CPU) NextWork(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.irqStop || (c.irq != nil && c.irq.PendingInterrupt(c.id)) {
		return now + 1 // interrupt delivery and pipeline draining are per-cycle
	}
	wake := uint64(cpu.NoWork)
	if !c.fetchStalled && !c.fetchFault && len(c.fq) < fetchQueue {
		if c.fetchReady <= now+1 {
			return now + 1 // the front end can fetch next cycle
		}
		wake = c.fetchReady // I-miss completion re-enables fetch
	}
	if len(c.fq) > 0 && c.count < windowSize {
		return now + 1 // dispatch moves fetched instructions every cycle
	}
	if c.tr != nil && c.count == windowSize && len(c.fq) > 0 {
		return now + 1 // the window-full trace event is emitted per cycle
	}
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		op := e.inst.Op
		if op == isa.SYSCALL || op == isa.HALT || op == isa.LL || op == isa.SC {
			if idx == c.head {
				return now + 1 // serializers execute (and retry) at the head
			}
			continue // inert until it reaches the head; older entries bound that
		}
		if !e.issued {
			// Wakes when its last producer completes. If its operands are
			// already available, the reason it has not issued (FU conflict,
			// issue width, a load blocked on an older store or refused by
			// the memory system) is not provable from here: no skip.
			ready := now
			unknown := false
			for s := 0; s < e.nSrc; s++ {
				p := e.srcProd[s]
				if p < 0 {
					continue
				}
				pe := &c.rob[p]
				if !pe.issued {
					// The producer's own window entry bounds progress; this
					// consumer cannot issue before the producer does.
					unknown = true
					break
				}
				if !pe.done && pe.doneAt <= now {
					return now + 1 // completion pass cut short by a flush this cycle
				}
				if pe.doneAt > ready {
					ready = pe.doneAt
				}
			}
			if unknown {
				continue
			}
			if ready <= now {
				return now + 1
			}
			if ready < wake {
				wake = ready
			}
			continue
		}
		if !e.done {
			if e.doneAt <= now {
				return now + 1 // complete() was cut short by a flush this cycle
			}
			if e.doneAt < wake {
				wake = e.doneAt // completion marks it done at doneAt
			}
			continue
		}
		// Issued and done: values latched, inert — except at the head,
		// where graduation acts on it (or retries against memory-system
		// backpressure) as soon as doneAt has passed.
		if idx == c.head {
			if e.doneAt <= now {
				return now + 1
			}
			if e.doneAt < wake {
				wake = e.doneAt
			}
		}
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// SkipCycles is the scheduler's bulk-accounting hook: the cycles in
// [from, to) were proved inert by NextWork and will never be ticked,
// but in the per-cycle loop each of them would have charged one
// zero-graduation blame cycle. NextWork guarantees nothing completes,
// issues, dispatches or graduates inside the range, so the blame
// attribution is frozen across it and one bulk charge of to-from
// cycles is identical to the per-cycle charges.
func (c *CPU) SkipCycles(from, to uint64) {
	if c.ctx.Halted || to <= from {
		return
	}
	c.blameN(from, to-from)
}

// --- graduate ---

func (c *CPU) graduate(now uint64) int {
	n := 0
	for n < gradWidth && c.count > 0 {
		e := &c.rob[c.head]
		if !e.dispatched {
			break
		}
		op := e.inst.Op

		// Serializing instructions execute here, at the head,
		// non-speculatively.
		if op == isa.SYSCALL || op == isa.HALT || op == isa.LL || op == isa.SC {
			if !c.serialize(now, e) {
				break
			}
			n++
			continue
		}

		if !e.done || e.doneAt > now {
			break
		}

		if op.IsMem() && !e.eaOK {
			c.ctx.Faultf("%v: unmapped data address (pc %#x)", op, e.pc)
			break
		}
		if op.IsLoad() && c.loadRefresh(e) {
			// Another CPU wrote the location between this load's
			// speculative issue and its graduation (value-based
			// memory-ordering check, as in the R10000). Commit the load
			// with the coherent value — guaranteeing forward progress
			// even on heavily contended spin locations — and squash the
			// younger instructions that may have consumed the stale one.
			c.stats.Replays++
			c.stats.Squashed += uint64(c.squashAfter(c.head) + len(c.fq))
			c.fq = c.fq[:0]
			c.fetchPC = e.actualNext
			c.fetchReady = now + 1
			c.fetchStalled = false
			c.fetchFault = false
			c.commit(e)
			n++
			continue
		}
		if op.IsStore() {
			if _, ok := c.mem.Access(now, c.id, e.ea, true); !ok {
				break // write buffer full; retry next cycle
			}
			c.writeStore(e)
		}

		c.commit(e)
		n++
	}
	return n
}

// commit retires the head entry into architectural state.
func (c *CPU) commit(e *robEntry) {
	c.writeDest(e)
	c.ctx.PC = e.actualNext
	c.stats.Instructions++
	if c.prof != nil {
		c.prof.RetirePC(e.ppc)
	}
	c.release()
}

// writeDest updates the architectural register file from e.
func (c *CPU) writeDest(e *robEntry) {
	d := e.dest
	if d == isa.RegNone {
		return
	}
	if d >= isa.RegFPBase {
		c.ctx.FRegs[d-isa.RegFPBase] = e.fvalue
	} else {
		c.ctx.Regs[d] = e.value
	}
}

// release frees the head slot, clears rename entries pointing at it, and
// detaches younger consumers (the committed value is now architectural,
// so they read the register file instead of a slot that may be reused).
func (c *CPU) release() {
	slot := c.head
	for r := range c.writer {
		if c.writer[r] == slot {
			c.writer[r] = -1
		}
	}
	c.rob[slot] = robEntry{}
	c.head = (c.head + 1) % windowSize
	c.count--
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		for s := 0; s < e.nSrc; s++ {
			if e.srcProd[s] == slot {
				e.srcProd[s] = -1
			}
		}
	}
}

// loadRefresh re-reads a graduating load's location; if the value
// changed since the speculative read it stores the coherent value into e
// and reports true.
func (c *CPU) loadRefresh(e *robEntry) bool {
	switch e.inst.Op {
	case isa.LW:
		if v := c.img.Read32(e.ea); v != e.value {
			e.value = v
			return true
		}
	case isa.LB:
		if v := uint32(c.img.Read8(e.ea)); v != e.value {
			e.value = v
			return true
		}
	case isa.LD:
		if bits := c.img.Read64(e.ea); bits != math.Float64bits(e.fvalue) {
			e.fvalue = math.Float64frombits(bits)
			return true
		}
	}
	return false
}

// writeStore performs the functional memory write of a graduating store.
func (c *CPU) writeStore(e *robEntry) {
	switch e.inst.Op {
	case isa.SW:
		c.img.Write32(e.ea, e.storeVal)
	case isa.SB:
		c.img.Write8(e.ea, uint8(e.storeVal))
	case isa.SD:
		c.img.WriteF64(e.ea, e.storeFVal)
	}
}

// serialize handles SYSCALL/HALT/LL/SC at the ROB head. Reports whether
// the instruction graduated this cycle.
func (c *CPU) serialize(now uint64, e *robEntry) bool {
	switch e.inst.Op {
	case isa.HALT:
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(e.ppc)
		}
		c.ctx.Halted = true
		return false
	case isa.SYSCALL:
		c.ctx.PC = e.pc + 4
		extra := c.trap.Syscall(now, c.id, c.ctx, e.inst.Imm)
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(e.ppc)
		}
		c.flushAll(now)
		c.fetchPC = c.ctx.PC
		c.fetchReady = now + 1 + extra
		if c.ctx.Halted {
			return false
		}
		return true
	case isa.LL:
		if !e.issued {
			ea := c.ctx.Regs[e.inst.R2] + uint32(e.inst.Imm)
			pea, ok := c.ctx.Space.Translate(ea)
			if !ok {
				c.ctx.Faultf("ll: unmapped address %#x (pc %#x)", ea, e.pc)
				return false
			}
			res, accepted := c.mem.Access(now, c.id, pea, false)
			if !accepted {
				return false
			}
			e.issued = true
			e.ea, e.eaOK = pea, true
			e.doneAt = res.Done
			e.memLevel = res.Level
		}
		if e.doneAt > now+1 {
			e.done = true
			return false
		}
		c.mem.LLReserve(c.id, e.ea)
		e.value = c.img.Read32(e.ea)
		e.actualNext = e.pc + 4
		c.commit(e)
		return true
	case isa.SC:
		ea := c.ctx.Regs[e.inst.R2] + uint32(e.inst.Imm)
		pea, ok := c.ctx.Space.Translate(ea)
		if !ok {
			c.ctx.Faultf("sc: unmapped address %#x (pc %#x)", ea, e.pc)
			return false
		}
		if !c.mem.SCCheck(c.id, pea) {
			e.value = 0
		} else {
			if _, accepted := c.mem.Access(now, c.id, pea, true); !accepted {
				c.mem.LLReserve(c.id, pea) // restore the consumed reservation
				return false
			}
			c.img.Write32(pea, c.ctx.Regs[e.inst.R1])
			e.value = 1
		}
		e.actualNext = e.pc + 4
		c.commit(e)
		return true
	}
	return false
}

// flushAll squashes every in-flight instruction and the fetch queue.
func (c *CPU) flushAll(now uint64) {
	if c.tr != nil {
		c.tr.Emit(obsv.Event{
			Cycle: now, Arg: uint32(c.count + len(c.fq)),
			Kind: obsv.EvFlush, CPU: int8(c.id),
		})
	}
	for i := range c.rob {
		c.rob[i] = robEntry{}
	}
	for i := range c.writer {
		c.writer[i] = -1
	}
	c.head, c.tail, c.count = 0, 0, 0
	c.fq = c.fq[:0]
	c.fetchLine = invalidLine
	c.fetchStalled = false
	c.fetchFault = false
}

// --- complete: finish executed instructions, resolve branches ---

func (c *CPU) complete(now uint64) {
	// Mark newly finished entries and handle branch resolution in
	// program order, so a mispredicted older branch squashes younger
	// work before that work can resolve.
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		if !e.issued || e.doneAt > now || e.done {
			continue
		}
		e.done = true
		if e.inst.Op.IsControl() {
			c.stats.Branches++
		}
		if e.inst.Op.IsControl() && e.actualNext != e.predNext {
			// Misprediction: squash younger entries, redirect fetch.
			c.stats.Mispredicts++
			squashed := c.squashAfter(idx) + len(c.fq)
			c.stats.Squashed += uint64(squashed)
			if c.tr != nil {
				c.tr.Emit(obsv.Event{
					Cycle: now, Addr: e.pc, Arg: uint32(squashed),
					Kind: obsv.EvMispredict, CPU: int8(c.id),
				})
			}
			c.updateBTB(e)
			c.fetchPC = e.actualNext
			c.fetchReady = now + 1
			c.fetchStalled = false
			c.fetchFault = false
			c.fq = c.fq[:0]
			return
		}
		if e.inst.Op.IsControl() {
			c.updateBTB(e)
		}
	}
}

// squashAfter removes every entry younger than the one at slot and
// returns how many were removed.
func (c *CPU) squashAfter(slot int) int {
	n := 0
	for c.count > 0 {
		last := (c.tail - 1 + windowSize) % windowSize
		if last == slot {
			break
		}
		n++
		e := &c.rob[last]
		for r := range c.writer {
			if c.writer[r] == last {
				c.writer[r] = -1
			}
		}
		// Restore rename visibility for older writers of the squashed
		// entry's destination.
		if e.dest != isa.RegNone {
			c.rewireWriter(e.dest, last)
		}
		c.rob[last] = robEntry{}
		c.tail = last
		c.count--
	}
	return n
}

// rewireWriter points writer[reg] at the youngest surviving producer.
func (c *CPU) rewireWriter(reg uint8, excluded int) {
	c.writer[reg] = -1
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		if idx == excluded {
			continue
		}
		if c.rob[idx].valid && c.rob[idx].dest == reg {
			c.writer[reg] = idx
		}
	}
}

func (c *CPU) updateBTB(e *robEntry) {
	idx := (e.pc >> 2) % btbEntries
	if e.actualNext != e.pc+4 {
		c.btb[idx] = btbEntry{tag: e.pc, target: e.actualNext, valid: true}
	} else if c.btb[idx].valid && c.btb[idx].tag == e.pc {
		c.btb[idx].valid = false
	}
}

// --- issue ---

// fuBusy tracks per-cycle structural limits.
type fuBusy [cpu.NumFUClasses]int

func (c *CPU) issue(now uint64) {
	var busy fuBusy
	issued := 0
	for i, idx := 0, c.head; i < c.count && issued < issueWidth; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		if !e.dispatched || e.issued {
			continue
		}
		op := e.inst.Op
		if op == isa.SYSCALL || op == isa.HALT || op == isa.LL || op == isa.SC {
			continue // executed at the head
		}
		if !c.operandsReady(e, now) {
			continue
		}
		class := cpu.ClassOf(op)
		if busy[class] >= class.Copies() {
			continue
		}
		if op.IsLoad() && !c.tryLoad(now, idx, e) {
			continue
		}
		if !op.IsLoad() {
			c.execute(now, idx, e)
		}
		busy[class]++
		issued++
	}
}

// operandsReady reports whether e's renamed sources have produced.
func (c *CPU) operandsReady(e *robEntry, now uint64) bool {
	for s := 0; s < e.nSrc; s++ {
		p := e.srcProd[s]
		if p < 0 {
			continue
		}
		pe := &c.rob[p]
		if !pe.done || pe.doneAt > now {
			return false
		}
	}
	return true
}

// readSrc returns the integer value of unified register r for entry e.
func (c *CPU) readSrc(e *robEntry, r uint8) uint32 {
	for s := 0; s < e.nSrc; s++ {
		if e.srcRegs[s] == r && e.srcProd[s] >= 0 {
			return c.rob[e.srcProd[s]].value
		}
	}
	if r < 32 {
		return c.ctx.Regs[r]
	}
	return 0
}

// readSrcF returns the FP value of unified register r for entry e.
func (c *CPU) readSrcF(e *robEntry, r uint8) float64 {
	u := r + isa.RegFPBase
	for s := 0; s < e.nSrc; s++ {
		if e.srcRegs[s] == u && e.srcProd[s] >= 0 {
			return c.rob[e.srcProd[s]].fvalue
		}
	}
	return c.ctx.FRegs[r]
}

// tryLoad issues a load: address generation, store-queue check, cache
// access. Returns false if it must retry later.
func (c *CPU) tryLoad(now uint64, idx int, e *robEntry) bool {
	ea := c.readSrc(e, e.inst.R2) + uint32(e.inst.Imm)
	pea, ok := c.ctx.Space.Translate(ea)
	if !ok {
		// Wrong-path loads may compute garbage addresses; complete
		// harmlessly here. If this load is on the right path it faults
		// at graduation (eaOK stays false).
		e.issued, e.done = true, true
		e.doneAt = now + 1
		e.value, e.fvalue = 0, 0
		e.actualNext = e.pc + 4
		return true
	}
	e.ea, e.eaOK = pea, true

	// Store-to-load ordering: scan older stores.
	lSize := e.inst.Op.MemBytes()
	for i, j := 0, c.head; j != idx; i, j = i+1, (j+1)%windowSize {
		se := &c.rob[j]
		if !se.valid || !se.inst.Op.IsStore() || se.inst.Op == isa.SC {
			continue
		}
		if !se.issued || !se.done || se.doneAt > now {
			return false // older store address unknown: wait
		}
		sSize := se.inst.Op.MemBytes()
		if se.ea+sSize <= pea || pea+lSize <= se.ea {
			continue // disjoint
		}
		if se.ea == pea && sSize == lSize {
			// Exact match: forward the store's data.
			if se.inst.Op == isa.SD {
				e.fvalue = se.storeFVal
			} else {
				e.value = se.storeVal
			}
			e.issued, e.done, e.fwd = true, true, true
			e.doneAt = now + 1
			e.actualNext = e.pc + 4
			return true
		}
		// Partial overlap: wait until the store graduates and writes
		// memory, then the load reads the merged bytes.
		return false
	}

	res, accepted := c.mem.Access(now, c.id, pea, false)
	if !accepted {
		return false
	}
	e.issued = true
	e.doneAt = res.Done
	e.memLevel = res.Level
	e.actualNext = e.pc + 4
	switch e.inst.Op {
	case isa.LW:
		e.value = c.img.Read32(pea)
	case isa.LB:
		e.value = uint32(c.img.Read8(pea))
	case isa.LD:
		e.fvalue = c.img.ReadF64(pea)
	}
	return true
}

// execute performs a non-load instruction's computation at issue.
func (c *CPU) execute(now uint64, idx int, e *robEntry) {
	in := e.inst
	op := in.Op
	e.issued = true
	e.doneAt = now + cpu.Latency(op)
	e.actualNext = e.pc + 4

	switch {
	case op.IsStore(): // SW, SB, SD (SC handled at head)
		ea := c.readSrc(e, in.R2) + uint32(in.Imm)
		if pea, ok := c.ctx.Space.Translate(ea); ok {
			e.ea, e.eaOK = pea, true
		}
		// else: eaOK stays false; graduation faults if this store turns
		// out to be on the right path.
		if op == isa.SD {
			e.storeFVal = c.readSrcF(e, in.R1)
		} else {
			e.storeVal = c.readSrc(e, in.R1)
		}
	case op.IsBranch():
		if cpu.BranchTaken(op, c.readSrc(e, in.R1), c.readSrc(e, in.R2)) {
			e.actualNext = uint32(int64(e.pc) + 4 + int64(in.Imm)*4)
		}
	case op == isa.J:
		e.actualNext = uint32(in.Imm) * 4
	case op == isa.JAL:
		e.value = e.pc + 4
		e.actualNext = uint32(in.Imm) * 4
	case op == isa.JR:
		e.actualNext = c.readSrc(e, in.R2)
	case op == isa.JALR:
		e.value = e.pc + 4
		e.actualNext = c.readSrc(e, in.R2)
	case op == isa.CPUID:
		e.value = uint32(c.id)
	case op == isa.FMOV, op == isa.FNEG:
		e.fvalue = cpu.FPOp(op, c.readSrcF(e, in.R2), 0)
	case op == isa.FEQ, op == isa.FLT, op == isa.FLE:
		e.value = cpu.FPCmp(op, c.readSrcF(e, in.R2), c.readSrcF(e, in.R3))
	case op == isa.CVTIF:
		e.fvalue = float64(int32(c.readSrc(e, in.R2)))
	case op == isa.CVTFI:
		e.value = cpu.CvtFI(c.readSrcF(e, in.R2))
	case op.IsFPOp():
		e.fvalue = cpu.FPOp(op, c.readSrcF(e, in.R2), c.readSrcF(e, in.R3))
	default:
		if op.Format() == isa.FormatR {
			e.value = cpu.ALU(op, c.readSrc(e, in.R2), c.readSrc(e, in.R3), 0)
		} else {
			e.value = cpu.ALU(op, c.readSrc(e, in.R2), 0, in.Imm)
		}
	}
}

// --- dispatch ---

func (c *CPU) dispatch(now uint64) {
	if c.count == windowSize && len(c.fq) > 0 && c.tr != nil {
		c.tr.Emit(obsv.Event{Cycle: now, Kind: obsv.EvROBFull, CPU: int8(c.id)})
	}
	n := 0
	for n < issueWidth && len(c.fq) > 0 && c.count < windowSize {
		fe := c.fq[0]
		c.fq = c.fq[1:]
		slot := c.tail
		e := &c.rob[slot]
		*e = robEntry{
			valid:      true,
			inst:       fe.inst,
			pc:         fe.pc,
			ppc:        fe.ppc,
			dispatched: true,
			predNext:   fe.predNext,
			actualNext: fe.predNext,
			dest:       fe.inst.Dest(),
		}
		var srcs []uint8
		srcs = fe.inst.Srcs(srcs)
		if len(srcs) > 2 {
			srcs = srcs[:2]
		}
		for i, r := range srcs {
			e.srcRegs[i] = r
			e.srcProd[i] = c.writer[r]
		}
		e.nSrc = len(srcs)
		if e.dest != isa.RegNone {
			c.writer[e.dest] = slot
		}
		c.tail = (c.tail + 1) % windowSize
		c.count++
		c.seq++
		n++
	}
}

// --- fetch ---

func (c *CPU) fetch(now uint64) {
	if c.fetchStalled || c.fetchFault || now < c.fetchReady {
		return
	}
	for n := 0; n < fetchWidth && len(c.fq) < fetchQueue; n++ {
		pc := c.fetchPC
		ppc, ok := c.ctx.Space.Translate(pc)
		if !ok {
			c.fetchFault = true
			return
		}
		if ppc&c.lineMask != c.fetchLine {
			r := c.mem.IFetch(now, c.id, ppc)
			c.fetchLine = ppc & c.lineMask
			c.fetchLvl = r.Level
			if r.Done > now+1 {
				c.fetchReady = r.Done
				return
			}
		}
		in, ok := c.code.InstAt(ppc)
		if !ok {
			c.fetchFault = true
			return
		}
		fe := fetchEntry{pc: pc, ppc: ppc, inst: in}
		fe.predNext = c.predict(pc, in)
		//simlint:allow hotalloc — fetch queue reuses its backing array at steady state
		c.fq = append(c.fq, fe)
		c.fetchPC = fe.predNext
		if in.Op == isa.SYSCALL || in.Op == isa.HALT {
			// Serialize: nothing is fetched past a trap boundary.
			c.fetchStalled = true
			return
		}
	}
}

// predict returns the predicted next PC for in at pc.
func (c *CPU) predict(pc uint32, in isa.Inst) uint32 {
	switch {
	case in.Op == isa.J, in.Op == isa.JAL:
		return uint32(in.Imm) * 4
	case in.Op == isa.JR, in.Op == isa.JALR, in.Op.IsBranch():
		idx := (pc >> 2) % btbEntries
		if b := c.btb[idx]; b.valid && b.tag == pc {
			return b.target
		}
		return pc + 4
	}
	return pc + 4
}

// --- stall attribution (blame the head) ---

// blame charges the zero-graduation cycle to its cause, following the
// paper's Figure 11 categories: instruction stalls, data stalls, and
// pipeline stalls (which include the shared-L1 hit time and bank
// contention, surfaced here as L1-level load waits).
func (c *CPU) blame(now uint64) { c.blameN(now, 1) }

// blameN charges n consecutive zero-graduation cycles starting at now.
// The bulk form exists for SkipCycles: across a window NextWork proved
// inert, the head entry (and the cause it would be blamed on) cannot
// change, so charging n cycles at once is identical to n per-cycle
// blame calls.
func (c *CPU) blameN(now, n uint64) {
	if c.count == 0 {
		c.stats.IStall[c.fetchLvl] += n
		if c.prof != nil {
			// Charge the PC the front end is trying to fetch; Translate
			// is pure, and only paid when profiling is on.
			if ppc, ok := c.ctx.Space.Translate(c.fetchPC); ok {
				c.prof.IStallPC(ppc, uint8(c.fetchLvl), n)
			}
		}
		return
	}
	e := &c.rob[c.head]
	op := e.inst.Op
	switch {
	case e.issued && !e.fwd && op.IsLoad() && (!e.done || e.doneAt > now):
		if e.memLevel == memsys.LvlL1 {
			c.stats.PipeStall += n // extra hit latency / bank contention
			if c.prof != nil {
				c.prof.PipeStallPC(e.ppc, n)
			}
		} else {
			c.stats.DStall[e.memLevel] += n
			if c.prof != nil {
				c.prof.DStallPC(e.ppc, uint8(e.memLevel), n)
			}
		}
	case op.IsStore() && e.done && e.doneAt <= now:
		c.stats.DStall[memsys.LvlL2] += n // write buffer backpressure
		if c.prof != nil {
			c.prof.DStallPC(e.ppc, uint8(memsys.LvlL2), n)
		}
	default:
		c.stats.PipeStall += n
		if c.prof != nil {
			c.prof.PipeStallPC(e.ppc, n)
		}
	}
}
