package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/workload"
)

// TestTracingIsOutputNeutral runs small jobs on every architecture and
// CPU model untraced and traced, and requires identical results. FFT
// and pmake set the shared-L2 write policy through the wrapped memory
// system, pmake traps into the guest kernel, the memory-bound
// configuration makes MXS backfill stall cycles across skipped windows,
// and the attached interval sampler reads the MSHR probe; a wrapper that
// dropped any of these would change the digest or the samples.
func TestTracingIsOutputNeutral(t *testing.T) {
	cfg := func() memsys.Config {
		c := benchfig.MemBoundConfig()
		c.Metrics = obsv.NewMetrics(5000)
		return c
	}
	var jobs []job
	for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
		figs := []benchfig.Figure{
			{Name: "fft-" + string(model), Model: model, Cfg: cfg, New: func() workload.Workload {
				return workload.NewFFT(workload.FFTParams{N: 64, Batches: 2})
			}},
			{Name: "pmake-" + string(model), Model: model, Cfg: cfg, New: func() workload.Workload {
				return workload.NewPmake(workload.PmakeParams{Procs: 4, Funcs: 8, Passes: 1})
			}},
		}
		for _, f := range figs {
			for _, a := range core.Arches() {
				jobs = append(jobs, job{fig: f, arch: a})
			}
		}
	}
	w := benchWorkload{name: "neutrality"}
	plain := runCampaign(w, jobs, false, nil)
	traced := runCampaign(w, jobs, true, nil)
	for i := range jobs {
		p, tr := &plain.outs[i], &traced.outs[i]
		k := jobs[i].key()
		if p.err != nil || tr.err != nil {
			t.Fatalf("%s: untraced error %v, traced error %v", k, p.err, tr.err)
		}
		dp, err := resultDigest(p.res)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := resultDigest(tr.res)
		if err != nil {
			t.Fatal(err)
		}
		if dp != dt {
			t.Errorf("%s: traced digest %s, untraced %s", k, dt, dp)
		}
		if !reflect.DeepEqual(p.res.Metrics.Samples(), tr.res.Metrics.Samples()) {
			t.Errorf("%s: traced interval samples differ from untraced", k)
		}
		if tr.tr.ticks == 0 || tr.tr.tick.n == 0 || tr.tr.empty.n == 0 || tr.tr.checked == 0 {
			t.Errorf("%s: traced run measured nothing: %+v", k, *tr.tr)
		}
	}
	if traced.sim.CyclesSkipped.Value() == 0 {
		t.Error("no cycle was skipped, so stall backfill across skips went unchecked")
	}
}

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestPinsCoverEveryJob checks that every job of every workload has a
// pinned output and its figure a pinned digest.
func TestPinsCoverEveryJob(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		jobs, err := w.jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, ok := pins[w.name].Jobs[j.key()]; !ok {
				t.Errorf("%s: no pin for %s", w.name, j.key())
			}
			if _, ok := pins[w.name].Figures[j.fig.Name]; !ok {
				t.Errorf("%s: no figure pin for %s", w.name, j.fig.Name)
			}
		}
	}
}
