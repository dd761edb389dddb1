// Pool identity suite: runs executed side by side on a runner pool must
// be invisible to each other. Each case runs a workload serially, on
// its own, and again as one of several jobs on a RunnerPool with 2 or 4
// workers, each job carrying its own interval sampler, and requires
// identical cycle counts, per-CPU stall statistics, memory reports,
// interval samples and latency histograms. The figures built from the
// pooled runs must also match, so campaign output does not depend on
// the worker count. Any state shared between machines (a package-level
// table, a shared generator, a per-process counter) shows up here as a
// diff, and under -race as a report.
//
// The suite keeps the TestParallel* names of the identity tests of the
// sharded tick scheduler it replaces: with that scheduler gone, the job
// pool is the one place where simulations run in parallel.
package cmpsim_test

import (
	"reflect"
	"testing"

	"cmpsim"
	"cmpsim/internal/workload"
)

// parRun is everything observable about one sampled run.
type parRun struct {
	res     *cmpsim.Result
	samples []cmpsim.Sample
	hist    string
}

// poolJob is one pooled run: a workload on one architecture with its
// own configuration.
type poolJob struct {
	arch cmpsim.Arch
	cfg  cmpsim.Config
}

// runSerial runs one sampled job on its own.
func runSerial(t *testing.T, mk func() cmpsim.Workload, model cmpsim.CPUModel, j poolJob) parRun {
	t.Helper()
	j.cfg.Metrics = cmpsim.NewMetrics(5000)
	res, err := cmpsim.RunWorkload(mk(), j.arch, model, &j.cfg)
	if err != nil {
		t.Fatalf("%s/%s serial: %v", j.arch, model, err)
	}
	return parRun{res: res, samples: j.cfg.Metrics.Samples(), hist: j.cfg.Metrics.Hist().String()}
}

// runPooled runs the jobs together on a pool of the given worker count,
// each with its own sampler, and returns their runs in job order.
func runPooled(t *testing.T, mk func() cmpsim.Workload, model cmpsim.CPUModel, workers int, pj []poolJob) []parRun {
	t.Helper()
	jobs := make([]cmpsim.Job, len(pj))
	for i, j := range pj {
		cfg := j.cfg
		cfg.Metrics = cmpsim.NewMetrics(5000)
		jobs[i] = cmpsim.Job{
			Workload: func() (cmpsim.Workload, error) { return mk(), nil },
			Arch:     j.arch,
			Model:    model,
			Cfg:      cfg,
			Tag:      string(j.arch),
		}
	}
	results := (&cmpsim.RunnerPool{Workers: workers}).Run(jobs)
	runs := make([]parRun, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s workers=%d: %v", pj[i].arch, model, workers, r.Err)
		}
		m := jobs[i].Cfg.Metrics
		runs[i] = parRun{res: r.Res, samples: m.Samples(), hist: m.Hist().String()}
	}
	return runs
}

// diffParRuns fails the test on the first observable difference between
// a pooled and the serial run of the same configuration.
func diffParRuns(t *testing.T, workers int, par, ref parRun) {
	t.Helper()
	if par.res.Cycles != ref.res.Cycles {
		t.Errorf("workers=%d cycles: pooled=%d serial=%d", workers, par.res.Cycles, ref.res.Cycles)
	}
	if !reflect.DeepEqual(par.res.PerCPU, ref.res.PerCPU) {
		t.Errorf("workers=%d per-CPU stats diverge:\npooled: %+v\nserial: %+v", workers, par.res.PerCPU, ref.res.PerCPU)
	}
	if !reflect.DeepEqual(par.res.MemReport, ref.res.MemReport) {
		t.Errorf("workers=%d memory report diverges:\npooled: %+v\nserial: %+v", workers, par.res.MemReport, ref.res.MemReport)
	}
	if !reflect.DeepEqual(par.samples, ref.samples) {
		t.Errorf("workers=%d interval samples diverge (%d vs %d samples)", workers, len(par.samples), len(ref.samples))
	}
	if par.hist != ref.hist {
		t.Errorf("workers=%d latency histograms diverge:\npooled:\n%s\nserial:\n%s", workers, par.hist, ref.hist)
	}
}

// TestParallelMatchesSerial covers the full architecture × CPU-model
// matrix with a miss-heavy workload: the three architectures run
// together on 2 and 4 workers.
func TestParallelMatchesSerial(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 512, Steps: 1})
	}
	var pj []poolJob
	for _, arch := range cmpsim.Architectures() {
		pj = append(pj, poolJob{arch: arch, cfg: cmpsim.DefaultConfig()})
	}
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		t.Run(string(model), func(t *testing.T) {
			refRuns := map[cmpsim.Arch]*cmpsim.Result{}
			refs := make([]parRun, len(pj))
			for i, j := range pj {
				refs[i] = runSerial(t, mk, model, j)
				refRuns[j.arch] = refs[i].res
			}
			for _, workers := range []int{2, 4} {
				parRuns := map[cmpsim.Arch]*cmpsim.Result{}
				for i, par := range runPooled(t, mk, model, workers, pj) {
					t.Run(string(pj[i].arch), func(t *testing.T) { diffParRuns(t, workers, par, refs[i]) })
					parRuns[pj[i].arch] = par.res
				}
				refFig := cmpsim.BuildFigure("par", "mp3d", model, refRuns)
				parFig := cmpsim.BuildFigure("par", "mp3d", model, parRuns)
				if parFig.String() != refFig.String() {
					t.Errorf("workers=%d figure text diverges:\npooled:\n%s\nserial:\n%s", workers, parFig, refFig)
				}
				if parFig.Chart() != refFig.Chart() {
					t.Errorf("workers=%d figure charts diverge", workers)
				}
			}
		})
	}
}

// TestParallelMatchesSerialKernel runs four copies of the guest-kernel
// workload at once: preemption timers raising interrupts from event
// callbacks, trap-handler mutation of kernel run queues and context
// switches, in machines that share the host.
func TestParallelMatchesSerialKernel(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewPmake(workload.PmakeParams{Procs: 5, Funcs: 10, Passes: 2})
	}
	j := poolJob{arch: cmpsim.SharedL1, cfg: cmpsim.DefaultConfig()}
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		t.Run(string(model), func(t *testing.T) {
			ref := runSerial(t, mk, model, j)
			for _, workers := range []int{2, 4} {
				for _, par := range runPooled(t, mk, model, workers, []poolJob{j, j, j, j}) {
					diffParRuns(t, workers, par, ref)
				}
			}
		})
	}
}

// TestParallelNoSkipMatches pins the orthogonality of the pool and the
// quiescence skip: NoSkip runs pooled alongside skipping runs must all
// match the plain serial run.
func TestParallelNoSkipMatches(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1})
	}
	skip := poolJob{arch: cmpsim.SharedMem, cfg: cmpsim.DefaultConfig()}
	noSkip := skip
	noSkip.cfg.NoSkip = true
	ref := runSerial(t, mk, cmpsim.ModelMXS, skip)
	for _, par := range runPooled(t, mk, cmpsim.ModelMXS, 4, []poolJob{noSkip, skip, noSkip, skip}) {
		diffParRuns(t, 4, par, ref)
	}
}

// TestParallelTracedFallsBackSerial pins the per-event instruments: a
// traced run keeps its exact serial emission order when it shares the
// host with other traced runs, each writing its own ring.
func TestParallelTracedFallsBackSerial(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1})
	}
	traced := func() (cmpsim.Job, *cmpsim.TraceRing) {
		cfg := cmpsim.DefaultConfig()
		ring := cmpsim.NewTraceRing(1 << 16)
		cfg.Trace = ring
		return cmpsim.Job{
			Workload: func() (cmpsim.Workload, error) { return mk(), nil },
			Arch:     cmpsim.SharedL2,
			Model:    cmpsim.ModelMXS,
			Cfg:      cfg,
			Tag:      "traced",
		}, ring
	}
	refJob, refRing := traced()
	refRes, err := cmpsim.RunWorkload(mk(), refJob.Arch, refJob.Model, &refJob.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEvents := refRing.Events()
	jobs := make([]cmpsim.Job, 4)
	rings := make([]*cmpsim.TraceRing, 4)
	for i := range jobs {
		jobs[i], rings[i] = traced()
	}
	for i, r := range (&cmpsim.RunnerPool{Workers: 4}).Run(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if events := rings[i].Events(); !reflect.DeepEqual(events, refEvents) {
			t.Errorf("job %d: trace event streams diverge on the pool (%d vs %d events)", i, len(events), len(refEvents))
		}
		if r.Res.Cycles != refRes.Cycles {
			t.Errorf("job %d: cycles diverge on the pool with tracer: %d vs %d", i, r.Res.Cycles, refRes.Cycles)
		}
	}
}
