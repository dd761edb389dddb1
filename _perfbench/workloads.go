package main

import (
	"fmt"
	"strings"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
)

// benchWorkload is one closed-loop batch of simulation jobs: every
// listed figure on all three architectures. A pooled batch is submitted
// as one campaign to a two-worker runner.Pool, the way cmd/experiments
// runs; the others run one job at a time on the calling goroutine.
type benchWorkload struct {
	name    string
	pooled  bool
	figures []string // benchfig row names
}

// workloads are the benchmark's four batches. The reasons for each
// choice, and which layer metrics each should move, are in README.md.
var workloads = []benchWorkload{
	{name: "mipsy-figs", pooled: true, figures: []string{
		"Figure4_Eqntott", "Figure5_MP3D", "Figure6_Ocean", "Figure7_Volpack",
		"Figure8_Ear", "Figure9_FFT", "Figure10_Pmake",
	}},
	{name: "mxs-figs", figures: []string{
		"Figure11_MXS_Pmake", "Figure11_MXS_Eqntott", "Figure11_MXS_Ear",
	}},
	{name: "mipsy-membound", figures: []string{
		"Figure5_MP3D_MemBound", "Figure6_Ocean_MemBound",
	}},
	{name: "mxs-membound", figures: []string{
		"Figure11_MXS_MP3D_MemBound",
	}},
}

// job is one (figure, architecture) simulation.
type job struct {
	fig  benchfig.Figure
	arch core.Arch
}

func (j job) key() string { return j.fig.Name + "/" + string(j.arch) }

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// jobs returns the workload's jobs in figure order, each figure on the
// three architectures in the paper's order.
func (w benchWorkload) jobs() ([]job, error) {
	rows := map[string]benchfig.Figure{}
	for _, f := range benchfig.Figures() {
		rows[f.Name] = f
	}
	var out []job
	for _, name := range w.figures {
		f, ok := rows[name]
		if !ok {
			return nil, fmt.Errorf("workload %s: benchfig has no row %q", w.name, name)
		}
		for _, a := range core.Arches() {
			out = append(out, job{fig: f, arch: a})
		}
	}
	return out, nil
}
