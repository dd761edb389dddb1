package main

import (
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

// sampleEvery is the Tick sampling period of a traced run. A clock-read
// pair costs about as much as a Mipsy tick, so every call is counted
// but only one Tick in every sampleEvery is measured. Each sampled tick
// makes one of four measurements, so that no timed region encloses
// another one's clock reads: the Tick's inclusive time; an empty region
// timed at the same place, which calibrates the clock cost there; the
// times of the memory-system calls the Tick makes; and whether it
// retired an instruction. An odd period moves the sample through every
// slot of the scheduler's per-cycle CPU rotation, and the measurement
// is drawn from a fixed pseudo-random sequence rather than taken in
// turn: in turn, each measurement would recur every 4×sampleEvery
// calls and so always land on the same slot of a 4-CPU rotation.
const sampleEvery = 127

// maxSampleNs drops a timed region that took longer than this from the
// sample: the host descheduled it, and scaling the stall up to the call
// count would charge the layer for time the job lost to the machine.
const maxSampleNs = 100_000

// sampleKind is what a sampled Tick measures.
type sampleKind uint8

const (
	timeTick sampleKind = iota
	timeEmpty
	timeMemsys
	checkProgress
	numSampleKinds
)

// jobTrace is one job's layer instrumentation. The serial scheduler
// makes every Tick, Access and IFetch call of a machine on the job's
// goroutine, so the fields need no synchronization. Timings hold raw
// clock readings; the estimates subtract the clock cost.
type jobTrace struct {
	left uint64 // Tick calls until the next sampled one
	draw uint32 // xorshift state choosing each sampled Tick's measurement
	mem  bool   // the running Tick times its memory-system calls

	ticks, refused, access, ifetch uint64 // exact counts
	tick, empty, accessT, ifetchT  timing
	checked, useful                uint64 // ticks checked for, and found, a retired instruction
}

// timing sums the raw durations of a sample of timed regions.
type timing struct {
	n  uint64
	ns float64
}

func (s *timing) add(d time.Duration) {
	if d <= maxSampleNs {
		s.n++
		s.ns += float64(d)
	}
}

func (s timing) mean() float64 { return ratio(s.ns, float64(s.n)) }

func newJobTrace() *jobTrace {
	return &jobTrace{left: sampleEvery, draw: 2463534242}
}

func (t *jobTrace) wrapSys(m *core.Machine) { m.Sys = &tracedSys{System: m.Sys, t: t} }

func (t *jobTrace) wrapCores(m *core.Machine) {
	for i, c := range m.CPUs {
		m.CPUs[i] = &tracedCore{Core: c, t: t}
	}
}

// estimate scales a sample's mean, less the clock cost, to calls, in
// nanoseconds.
func (t *jobTrace) estimate(s timing, calls uint64) float64 {
	if s.n == 0 {
		return 0
	}
	return (s.mean() - t.empty.mean()) * float64(calls)
}

// tickEst is the estimated host time inside Tick. Every memory-system
// call is made inside a Tick, so Tick's self time is tickEst less
// memsysEst.
func (t *jobTrace) tickEst() float64 { return t.estimate(t.tick, t.ticks) }

func (t *jobTrace) memsysEst() float64 {
	return t.estimate(t.accessT, t.access) + t.estimate(t.ifetchT, t.ifetch)
}

// tracedCore counts every Tick and measures a deterministic 1-in-
// sampleEvery sample of them. Apart from Tick it forwards every call the
// scheduler makes, including the optional SkipCycles of models that
// backfill stall accounting across skipped cycles.
type tracedCore struct {
	core.Core
	t *jobTrace
}

func (c *tracedCore) Tick(now uint64) uint64 {
	t := c.t
	t.ticks++
	t.left--
	if t.left != 0 {
		return c.Core.Tick(now)
	}
	t.left = sampleEvery
	t.draw ^= t.draw << 13
	t.draw ^= t.draw >> 17
	t.draw ^= t.draw << 5
	switch sampleKind(t.draw % uint32(numSampleKinds)) {
	case timeTick:
		t0 := time.Now()
		wake := c.Core.Tick(now)
		t.tick.add(time.Since(t0))
		return wake
	case timeEmpty:
		t0 := time.Now()
		t.empty.add(time.Since(t0))
		return c.Core.Tick(now)
	case timeMemsys:
		t.mem = true
		wake := c.Core.Tick(now)
		t.mem = false
		return wake
	default:
		insts := c.Core.Stats().Instructions
		wake := c.Core.Tick(now)
		t.checked++
		if c.Core.Stats().Instructions != insts {
			t.useful++
		}
		return wake
	}
}

func (c *tracedCore) SkipCycles(from, to uint64) {
	if s, ok := c.Core.(interface{ SkipCycles(from, to uint64) }); ok {
		s.SkipCycles(from, to)
	}
}

// tracedSys counts every Access and IFetch and times those made inside
// the Ticks sampled for it. It forwards the optional methods the machine
// probes the memory system for: the shared-L2 write policy and the MSHR
// count.
type tracedSys struct {
	memsys.System
	t *jobTrace
}

func (s *tracedSys) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	t := s.t
	t.access++
	var r memsys.Result
	var ok bool
	if t.mem {
		t0 := time.Now()
		r, ok = s.System.Access(now, cpu, addr, write)
		t.accessT.add(time.Since(t0))
	} else {
		r, ok = s.System.Access(now, cpu, addr, write)
	}
	if !ok {
		t.refused++
	}
	return r, ok
}

func (s *tracedSys) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	t := s.t
	t.ifetch++
	if !t.mem {
		return s.System.IFetch(now, cpu, addr)
	}
	t0 := time.Now()
	r := s.System.IFetch(now, cpu, addr)
	t.ifetchT.add(time.Since(t0))
	return r
}

func (s *tracedSys) SetSharedData(f func(addr uint32) bool) {
	if p, ok := s.System.(interface{ SetSharedData(func(addr uint32) bool) }); ok {
		p.SetSharedData(f)
	}
}

func (s *tracedSys) MSHROutstanding(now uint64) int {
	if p, ok := s.System.(interface{ MSHROutstanding(now uint64) int }); ok {
		return p.MSHROutstanding(now)
	}
	return 0
}

// layerMetrics derives the per-layer metrics of one traced campaign,
// summing times and counts over its jobs. Keys that are not per_layer
// metrics hold intermediate sums.
func layerMetrics(c *campaign) map[string]float64 {
	m := map[string]float64{}
	checked, useful := map[core.CPUModel]uint64{}, map[core.CPUModel]uint64{}
	var empty timing
	var runNs, wait float64
	for i := range c.outs {
		o := &c.outs[i]
		t := o.tr
		cpu := "cpu." + string(o.job.fig.Model)
		m[cpu+".tick_calls"] += float64(t.ticks)
		m[cpu+".tick_self_s"] += (t.tickEst() - t.memsysEst()) / 1e9
		checked[o.job.fig.Model] += t.checked
		useful[o.job.fig.Model] += t.useful
		empty.n += t.empty.n
		empty.ns += t.empty.ns

		run := float64(o.run())
		runNs += run
		m["core.sched_self_s"] += (run - t.tickEst()) / 1e9

		ms := "memsys." + string(o.job.arch)
		m[ms+".access_calls"] += float64(t.access)
		m[ms+".ifetch_calls"] += float64(t.ifetch)
		m[ms+".refused_calls"] += float64(t.refused)
		m[ms+".access_est"] += t.estimate(t.accessT, t.access)
		m[ms+".ifetch_est"] += t.estimate(t.ifetchT, t.ifetch)
		m[ms+".self_s"] += t.memsysEst() / 1e9
		if o.res != nil {
			rep := o.res.MemReport
			m[ms+".l1d"] += float64(rep.L1D.Accesses())
			m[ms+".l1d_miss"] += float64(rep.L1D.Misses())
			m[ms+".l2"] += float64(rep.L2.Accesses())
			m[ms+".l2_miss"] += float64(rep.L2.Misses())
		}

		m["workload.build_s"] += span(o.start, o.built).Seconds()
		m["core.new_machine_s"] += span(o.built, o.cfgStart).Seconds()
		m["workload.configure_s"] += span(o.cfgStart, o.cfgEnd).Seconds()
		m["workload.validate_s"] += span(o.runEnd, o.end).Seconds()
		wait += span(c.start, o.start).Seconds()
	}
	for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
		cpu := "cpu." + string(model)
		m[cpu+".tick_self_ns"] = ratio(m[cpu+".tick_self_s"]*1e9, m[cpu+".tick_calls"])
		m[cpu+".useful_tick_frac"] = ratio(float64(useful[model]), float64(checked[model]))
	}
	for _, a := range core.Arches() {
		ms := "memsys." + string(a)
		m[ms+".access_ns"] = ratio(m[ms+".access_est"], m[ms+".access_calls"])
		m[ms+".ifetch_ns"] = ratio(m[ms+".ifetch_est"], m[ms+".ifetch_calls"])
		m[ms+".refused_frac"] = ratio(m[ms+".refused_calls"], m[ms+".access_calls"])
		m[ms+".l1d_miss_frac"] = ratio(m[ms+".l1d_miss"], m[ms+".l1d"])
		m[ms+".l2_miss_frac"] = ratio(m[ms+".l2_miss"], m[ms+".l2"])
	}

	ticked := float64(c.sim.CyclesTicked.Value())
	skipped := float64(c.sim.CyclesSkipped.Value())
	m["core.run_s"] = runNs / 1e9
	m["core.ticked_cycles"] = ticked
	m["core.skipped_cycles"] = skipped
	m["core.skip_frac"] = ratio(skipped, ticked+skipped)
	m["core.ns_per_ticked_cycle"] = ratio(runNs, ticked)

	if c.workerBusy > 0 {
		m["runner.worker_busy_frac"] = ratio(c.workerBusy.Seconds(), poolWorkers*c.wall().Seconds())
		m["runner.queue_wait_s"] = wait
		m["runner.jobs"] = float64(len(c.outs))
	}

	m["host.alloc_mb"] = c.host.allocBytes / (1 << 20)
	m["host.gc_cycles"] = c.host.gcCycles
	m["host.gc_cpu_frac"] = ratio(c.host.gcCPU, c.host.totalCPU)
	m["trace.clock_pair_ns"] = empty.mean()
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
