package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/runner"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// poolWorkers is the runner.Pool width of pooled workloads. It is fixed
// rather than GOMAXPROCS, so that the workload is the same on any host.
const poolWorkers = 2

// jobOut is what one job produced. Only the goroutine running the job
// writes it; the campaign reads it after the job has finished.
type jobOut struct {
	job job
	res *core.RunResult
	err error

	// Phase boundaries: job start, workload constructed, Configure
	// start and end, Machine.Run end (Validate start), Validate end.
	start, built, cfgStart, cfgEnd, runEnd, end time.Time

	// runCPU is the CPU time the job's thread spent inside Machine.Run.
	// The thread is held from the end of Configure to the start of
	// Validate so that the time is the run's alone.
	runCPU time.Duration
	cpu0   time.Duration
	locked bool

	tr        *jobTrace // nil in untraced campaigns
	mem       *memPeak  // nil in set-up rounds
	setupOnly bool      // stop after Configure with errSetupOnly
}

// errSetupOnly ends a set-up round's job before its first simulated
// cycle.
var errSetupOnly = errors.New("set-up only")

func span(from, to time.Time) time.Duration {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return to.Sub(from)
}

// run is the host time spent inside Machine.Run.
func (o *jobOut) run() time.Duration { return span(o.cfgEnd, o.runEnd) }

// newWorkload constructs the job's workload behind the phase-timing
// wrapper.
func (o *jobOut) newWorkload() (w workload.Workload, err error) {
	defer recoverErr(&err)
	o.start = time.Now()
	inner := o.job.fig.New()
	o.built = time.Now()
	return &timedWorkload{Workload: inner, out: o}, nil
}

// runDirect runs the job on the calling goroutine.
func (o *jobOut) runDirect(cfg memsys.Config) {
	defer recoverErr(&o.err)
	w, err := o.newWorkload()
	if err != nil {
		o.err = err
		return
	}
	o.res, o.err = workload.Run(w, o.job.arch, o.job.fig.Model, &cfg)
}

func recoverErr(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// timedWorkload stamps the phase boundaries workload.Run passes through
// and, in a traced job, installs the layer wrappers: the memory system
// before the real Configure builds the CPUs on it, the cores after.
type timedWorkload struct {
	workload.Workload
	out *jobOut
}

func (w *timedWorkload) Configure(m *core.Machine) (err error) {
	defer recoverErr(&err)
	o := w.out
	o.cfgStart = time.Now()
	if o.tr != nil {
		o.tr.wrapSys(m)
	}
	err = w.Workload.Configure(m)
	if err == nil && o.setupOnly {
		err = errSetupOnly
	}
	if o.tr != nil {
		o.tr.wrapCores(m)
	}
	o.cfgEnd = time.Now()
	o.mem.sample()
	if err == nil {
		runtime.LockOSThread()
		o.locked = true
		o.cpu0 = threadCPU()
	}
	return err
}

func (w *timedWorkload) Validate(m *core.Machine) (err error) {
	defer recoverErr(&err)
	o := w.out
	o.runEnd = time.Now()
	if o.locked {
		o.runCPU = threadCPU() - o.cpu0
		runtime.UnlockOSThread()
		o.locked = false
	}
	o.mem.sample()
	err = w.Workload.Validate(m)
	o.end = time.Now()
	return err
}

// campaign is one execution of a workload's whole batch.
type campaign struct {
	traced     bool
	start, end time.Time
	cpu        time.Duration // CPU time of every thread of the process
	outs       []jobOut      // in submission order

	// pause and pauseCPU are the wall and process CPU time spent timing
	// the reference kernel between jobs, which the campaign excludes.
	pause, pauseCPU time.Duration
	host            hostStats
	mem             memPeak

	// Traced campaigns only.
	sim        *telemetry.SimMetrics
	workerBusy time.Duration // summed over pool workers (pooled workloads)
}

func (c *campaign) wall() time.Duration { return c.end.Sub(c.start) - c.pause }

// runCampaign runs every job of order once. A traced campaign wraps each
// job's layers with a jobTrace. In a workload that runs one job at a
// time, between is called before each job with the time the previous
// job took; the time it takes is left out of the campaign's.
func runCampaign(w benchWorkload, order []job, traced bool, between func(prev time.Duration)) *campaign {
	c := &campaign{traced: traced, outs: make([]jobOut, len(order))}
	var tel *telemetry.Set
	if traced {
		tel = telemetry.New()
		c.sim = tel.Sim
	}
	for i, j := range order {
		c.outs[i].job = j
		c.outs[i].mem = &c.mem
		if traced {
			c.outs[i].tr = newJobTrace()
		}
	}
	before := readHost()
	cpu0 := processCPU()
	c.start = time.Now()
	if w.pooled {
		pool := &runner.Pool{Workers: poolWorkers}
		if traced {
			pool.Telem = tel.Runner
		}
		rjobs := make([]runner.Job, len(order))
		for i, j := range order {
			o := &c.outs[i]
			rjobs[i] = runner.Job{
				Workload: o.newWorkload,
				Arch:     j.arch,
				Model:    j.fig.Model,
				Cfg:      jobConfig(j, c.sim),
				Tag:      j.key(),
			}
		}
		for i, r := range pool.Run(rjobs) {
			c.outs[i].res, c.outs[i].err = r.Res, r.Err
		}
		if traced {
			for wk := 0; wk < poolWorkers; wk++ {
				c.workerBusy += time.Duration(tel.Runner.WorkerBusy.With(strconv.Itoa(wk)).Value())
			}
		}
	} else {
		var prev time.Duration
		for i, j := range order {
			if between != nil {
				t0, cpu := time.Now(), processCPU()
				between(prev)
				c.pause += time.Since(t0)
				c.pauseCPU += processCPU() - cpu
			}
			o := &c.outs[i]
			t0 := time.Now()
			o.runDirect(jobConfig(j, c.sim))
			prev = time.Since(t0)
		}
	}
	c.end = time.Now()
	c.cpu = processCPU() - cpu0 - c.pauseCPU
	c.host = readHost().sub(before)
	return c
}

// jobConfig is the figure's default memory-system configuration, with
// the cycle-loop telemetry panel attached in traced campaigns.
func jobConfig(j job, sim *telemetry.SimMetrics) memsys.Config {
	cfg := j.fig.Config()
	cfg.Telem = sim
	return cfg
}

// minSetupRounds is the fewest set-up rounds setupRounds makes.
const minSetupRounds = 11

// setupRounds makes set-up rounds for at least the given host time, and
// at least minSetupRounds of them, and returns each round's CPU time in
// seconds.
func setupRounds(jobs []job, d time.Duration) ([]float64, error) {
	start := time.Now()
	var out []float64
	for len(out) < minSetupRounds || time.Since(start) < d {
		t, err := setupRound(jobs)
		if err != nil {
			return out, err
		}
		out = append(out, t.Seconds())
	}
	return out, nil
}

// setupRound sets up every job's machine, one job at a time, and stops
// each before its first simulated cycle. It returns the summed CPU time
// of the set-ups. Each job starts right after a full garbage collection, so its
// guest memory image reuses the memory the previous job freed, as most
// jobs of a long campaign do. Without it, whether the runtime had
// already returned that memory to the operating system, and the image
// must be faulted back in at several times the cost, depends on when
// its background scavenger ran.
func setupRound(jobs []job) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var total time.Duration
	for _, j := range jobs {
		runtime.GC()
		o := jobOut{job: j, setupOnly: true}
		t0 := threadCPU()
		o.runDirect(jobConfig(j, nil))
		total += threadCPU() - t0
		if !errors.Is(o.err, errSetupOnly) {
			return 0, fmt.Errorf("%s: set-up: %v", j.key(), o.err)
		}
	}
	return total, nil
}

// memPeak is the largest live heap sampled in a campaign. It is read
// when a job has built its machine and when its run ends, the points
// where the machines alive hold the most. The live heap is what the
// last garbage collection marked, so unlike resident memory it does not
// depend on when the collector and the scavenger happened to run.
type memPeak struct{ bytes atomic.Uint64 }

func (p *memPeak) sample() {
	if p == nil {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := p.bytes.Load(); v > old && !p.bytes.CompareAndSwap(old, v); old = p.bytes.Load() {
	}
}

func (p *memPeak) mb() float64 { return float64(p.bytes.Load()) / (1 << 20) }

// hostStats are Go runtime counters, read through runtime/metrics.
type hostStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64 // seconds
}

var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostStats {
	s := make([]metrics.Sample, len(hostSamples))
	copy(s, hostSamples)
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return hostStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (h hostStats) sub(o hostStats) hostStats {
	return hostStats{
		allocBytes: h.allocBytes - o.allocBytes,
		gcCycles:   h.gcCycles - o.gcCycles,
		gcCPU:      h.gcCPU - o.gcCPU,
		totalCPU:   h.totalCPU - o.totalCPU,
	}
}
