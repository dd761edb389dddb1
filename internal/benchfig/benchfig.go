// Package benchfig defines the figure-benchmark matrix shared by the
// root package's BenchmarkFigures suite and cmd/benchjson: one entry
// per reproduced paper figure, with the reduced data-set sizes that
// keep a full sweep in the minutes range (cmd/experiments runs the
// paper-scale versions). Keeping the matrix in one place guarantees
// that `go test -bench Figures` and the BENCH_figures.json perf
// baseline measure exactly the same work.
package benchfig

import (
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// Figure is one figure benchmark: the workload runs on all three
// architectures under one CPU model, mirroring the corresponding
// per-application figure of the paper.
type Figure struct {
	Name  string // bench sub-name, e.g. "Figure5_MP3D"
	Model core.CPUModel
	Cfg   func() memsys.Config // nil = memsys.DefaultConfig (the paper's parameters)
	New   func() workload.Workload
}

// Config returns the memory-system configuration this figure is
// benchmarked under.
func (f Figure) Config() memsys.Config {
	if f.Cfg != nil {
		return f.Cfg()
	}
	return memsys.DefaultConfig()
}

// MemBoundConfig is the memory-latency-bound design point used by the
// *_MemBound benchmark rows: DRAM at 800 cycles, an L2 at 80, and
// caches shrunk far below the working sets, on a 2-CPU machine. It is
// the regime the quiescence-skipping scheduler exists for — nearly all
// cycles have every CPU mid-miss — so these rows are the perf
// sentinels that future scheduler changes regress against. (Under the
// paper's default parameters only 5-30% of cycles are fully blocked
// and skipping is roughly wall-clock neutral; see DESIGN.md.)
func MemBoundConfig() memsys.Config {
	cfg := memsys.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemLat = 800
	cfg.L2Lat = 80
	cfg.SharedL2Lat = 84
	cfg.C2CLat = 880 // keep C2C > memory, as in Table 2
	cfg.L1DSize = 4 << 10
	cfg.SharedL1Size = 16 << 10
	cfg.PrivL2Size = 64 << 10
	cfg.L2Size = 256 << 10
	return cfg
}

// MXSMemBoundConfig is the memory-bound design point on the paper's
// 4-CPU machine, for the detailed-CPU skip sentinel row: the
// out-of-order cores spend most cycles with full MSHRs at staggered
// times, so few cycles have every CPU blocked at once, and the
// scheduler's savings come from parking each stalled CPU on its own.
func MXSMemBoundConfig() memsys.Config {
	cfg := MemBoundConfig()
	cfg.NumCPUs = 4
	return cfg
}

// Figures returns the benchmark matrix in the paper's figure order:
// Figures 4-10 under Mipsy, Figure 11's three applications under MXS.
func Figures() []Figure {
	return []Figure{
		{"Figure4_Eqntott", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewEqntott(workload.EqntottParams{Words: 128, Iters: 40})
		}},
		{"Figure5_MP3D", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 2048, Steps: 2})
		}},
		{"Figure6_Ocean", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewOcean(workload.OceanParams{N: 66, FineIter: 2, CoarseIt: 2})
		}},
		{"Figure7_Volpack", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewVolpack(workload.VolpackParams{Size: 32, Depth: 16})
		}},
		{"Figure8_Ear", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewEar(workload.EarParams{Samples: 250})
		}},
		{"Figure9_FFT", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewFFT(workload.FFTParams{N: 64, Batches: 8})
		}},
		{"Figure10_Pmake", core.ModelMipsy, nil, func() workload.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 6, Funcs: 32, Passes: 3})
		}},
		{"Figure11_MXS_Pmake", core.ModelMXS, nil, func() workload.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 6, Funcs: 32, Passes: 2})
		}},
		{"Figure11_MXS_Eqntott", core.ModelMXS, nil, func() workload.Workload {
			return workload.NewEqntott(workload.EqntottParams{Words: 128, Iters: 30})
		}},
		{"Figure11_MXS_Ear", core.ModelMXS, nil, func() workload.Workload {
			return workload.NewEar(workload.EarParams{Samples: 150})
		}},
		// Memory-latency-bound variants of the MP3D and Ocean figures:
		// larger data sets than the default rows (MP3D 8192 particles,
		// Ocean on a 258x258 grid) under MemBoundConfig, where 90%+ of
		// cycles are fully blocked and the quiescence skip dominates.
		{"Figure5_MP3D_MemBound", core.ModelMipsy, MemBoundConfig, func() workload.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 8192, Steps: 1})
		}},
		{"Figure6_Ocean_MemBound", core.ModelMipsy, MemBoundConfig, func() workload.Workload {
			return workload.NewOcean(workload.OceanParams{N: 258, FineIter: 1, CoarseIt: 1})
		}},
		// Detailed-CPU memory-bound row: the per-CPU wake sentinel. See
		// MXSMemBoundConfig.
		{"Figure11_MXS_MP3D_MemBound", core.ModelMXS, MXSMemBoundConfig, func() workload.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 2048, Steps: 1})
		}},
	}
}

// Run executes one iteration of a figure benchmark — the workload on
// all three architectures — and returns the per-architecture results
// plus the total number of simulated cycles, the numerator of the
// simulated-cycles-per-second throughput metric. cfg overrides the
// memory-system parameters; nil uses the figure's own (f.Config).
func Run(f Figure, cfg *memsys.Config) (map[core.Arch]*core.RunResult, uint64, error) {
	if cfg == nil {
		c := f.Config()
		cfg = &c
	}
	runs := make(map[core.Arch]*core.RunResult, 3)
	var cycles uint64
	for _, a := range core.Arches() {
		res, err := workload.Run(f.New(), a, f.Model, cfg)
		if err != nil {
			return nil, 0, err
		}
		runs[a] = res
		cycles += res.Cycles
	}
	return runs, cycles, nil
}
