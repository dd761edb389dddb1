// Command cmpsim runs one workload on one or all of the three
// multiprocessor-microprocessor architectures and prints the paper-style
// execution-time breakdown and miss-rate table.
//
// With -arch all (the default) the three architecture runs are
// independent, so they dispatch through the internal/runner pool:
// -jobs shards them across cores and -cache-dir memoizes results;
// output is identical for any worker count.
//
// Usage:
//
//	cmpsim -workload eqntott                 # all three architectures, Mipsy
//	cmpsim -workload mp3d -arch shared-l1    # one architecture
//	cmpsim -workload ear -model mxs          # detailed dynamic superscalar model
//	cmpsim -workload mp3d -l2assoc 4         # the Section 4.1 L2 ablation
//	cmpsim -workload eqntott -quick -jobs 4  # parallel smoke run
//	cmpsim -list                             # list workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cmpsim/internal/check"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/stats"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// splicePath inserts arch before the extension when several
// architectures run in one invocation, so per-run sink files never
// collide ("prof.json" → "prof.shared-mem.json").
func splicePath(path, arch string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + arch + ext
}

// writeTraces flushes one run's ring to the requested sink files. When
// several architectures run in one invocation, each run gets its own
// files with the architecture name spliced in before the extension —
// two runs never share a sink, so their events cannot interleave.
func writeTraces(ring *obsv.Ring, chromePath, jsonlPath, arch string, multi bool) error {
	events := ring.Events()
	write := func(path string, fn func(io.Writer, []obsv.Event) error) error {
		if path == "" {
			return nil
		}
		path = splicePath(path, arch, multi)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(events), path)
		return nil
	}
	if err := write(chromePath, obsv.WriteChromeTrace); err != nil {
		return err
	}
	return write(jsonlPath, obsv.WriteJSONL)
}

// printCoherence prints the coherence-protocol counters of the
// architectures that have one (bus snooping for shared-mem, the L1
// sharing directory for shared-L2). These feed the Section 3
// discussion of coherence traffic and are otherwise invisible in the
// figure-style breakdowns.
func printCoherence(rep *memsys.Report) {
	if sn := rep.Snoop; sn != nil {
		fmt.Printf("            snoop: rd=%d wr=%d upg=%d inv=%d c2c=%d\n",
			sn.ReadMissesSnooped, sn.WriteMissesSnooped, sn.Upgrades,
			sn.InvalidationsSent, sn.CacheToCache)
	}
	if d := rep.Dir; d != nil {
		fmt.Printf("            dir: inv=%d inclusion-evicts=%d\n",
			d.Invalidations, d.InclusionEvicts)
	}
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run (see -list)")
		archStr = flag.String("arch", "all", "architecture: shared-l1, shared-l2, shared-mem, or all")
		model   = flag.String("model", "mipsy", "CPU model: mipsy or mxs")
		l2assoc = flag.Uint("l2assoc", 0, "override L2 associativity (0 = paper default)")
		cpus    = flag.Int("cpus", 0, "override processor count (0 = paper's 4)")
		regions = flag.Bool("regions", false, "profile data accesses by 256KB physical region")
		list    = flag.Bool("list", false, "list available workloads")
		verbose = flag.Bool("v", false, "also print raw cycle counts and IPC")
		quick   = flag.Bool("quick", false, "use reduced data sets (smoke runs)")
		noSkip  = flag.Bool("no-skip", false, "disable quiescence skipping in the cycle loop (slower; output is identical)")

		jobs     = flag.Int("jobs", 0, "max concurrent architecture runs (0 = GOMAXPROCS); output is identical for any value")
		cacheDir = flag.String("cache-dir", "", "memoize run results as JSON under this directory (\"\" = off)")
		progress = flag.Bool("progress", false, "print per-job completion lines (wall time, cache status) on stderr; stdout is unaffected")

		profFlag = flag.Bool("prof", false, "collect a guest cycle-attribution profile and print hot functions/PCs and the line-sharing heatmap")
		profOut  = flag.String("prof-out", "", "write the profile as JSON (cmd/simprof -in reads it) to this file")
		profTop  = flag.Int("prof-top", 15, "rows per profile report table")

		sanitize = flag.Bool("sanitize", false, "validate coherence/cycle invariants on every transaction (panics with an event trail on violation)")

		traceChrome = flag.String("trace", "", "write a Chrome trace (chrome://tracing, Perfetto) to this file")
		traceJSONL  = flag.String("trace-out", "", "write the raw event trace as JSON Lines (cmd/tracestats input) to this file")
		traceBuf    = flag.Int("trace-buf", 1<<20, "trace ring-buffer capacity in events (oldest dropped)")
		metricsIvl  = flag.Uint64("metrics-interval", 0, "sample interval metrics every N cycles (0 = off)")
	)
	var telem telemetry.Flags
	telem.Register()
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			w, _ := workload.New(n)
			fmt.Printf("%-10s %s\n", n, w.Description())
		}
		return
	}
	if *wlName == "" {
		fmt.Fprintln(os.Stderr, "cmpsim: -workload is required (try -list)")
		os.Exit(2)
	}

	var arches []core.Arch
	if *archStr == "all" {
		arches = core.Arches()
	} else {
		arches = []core.Arch{core.Arch(*archStr)}
	}

	cfg := memsys.DefaultConfig()
	if *l2assoc > 0 {
		cfg.L2Assoc = uint32(*l2assoc)
	}
	if *cpus > 0 {
		cfg.NumCPUs = *cpus
	}
	cfg.NoSkip = *noSkip

	set, err := telem.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	defer telem.Close()

	pool := &runner.Pool{Workers: *jobs}
	if *progress {
		pool.Progress = os.Stderr
	}
	if set != nil {
		pool.Telem = set.Runner
		cfg.Telem = set.Sim
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmpsim:", err)
			os.Exit(1)
		}
		pool.Cache = cache
	}

	// One job per architecture, each with its own tracer, profile and
	// checker instances so parallel runs share nothing.
	variant := "full"
	if *quick {
		variant = "quick"
	}
	archJobs := make([]runner.Job, len(arches))
	rings := make([]*obsv.Ring, len(arches))
	profs := make([]*regionProfile, len(arches))
	checkers := make([]*check.Checker, len(arches))
	for i, a := range arches {
		acfg := cfg
		var tracers []obsv.Tracer
		if *regions {
			profs[i] = newRegionProfile()
			tracers = append(tracers, profs[i])
		}
		if *traceChrome != "" || *traceJSONL != "" {
			rings[i] = obsv.NewRing(*traceBuf)
			tracers = append(tracers, rings[i])
		}
		if *sanitize {
			// The checker doubles as a tracer so its violation reports
			// carry the events leading up to the break.
			checkers[i] = check.New(64)
			tracers = append(tracers, checkers[i])
			acfg.Check = checkers[i]
		}
		acfg.Trace = obsv.Tee(tracers...)
		if *metricsIvl > 0 {
			acfg.Metrics = obsv.NewMetrics(*metricsIvl)
		}
		if *profFlag || *profOut != "" {
			acfg.Prof = prof.New(acfg.NumCPUs, acfg.LineBytes)
		}
		name := *wlName
		q := *quick
		archJobs[i] = runner.Job{
			Workload: func() (workload.Workload, error) {
				if q {
					return workload.NewQuick(name)
				}
				return workload.New(name)
			},
			WorkloadKey: name + "/" + variant,
			Arch:        a,
			Model:       core.CPUModel(*model),
			Cfg:         acfg,
			Tag:         name + "-" + string(a),
		}
	}

	results := pool.Run(archJobs)

	runs := map[core.Arch]*core.RunResult{}
	for i, a := range arches {
		if err := results[i].Err; err != nil {
			fmt.Fprintln(os.Stderr, "cmpsim:", err)
			os.Exit(1)
		}
		res := results[i].Res
		runs[a] = res
		if chk := checkers[i]; chk != nil {
			// Reaching here means every check passed (a violation panics).
			fmt.Printf("%-11s sanitize: %d checks, 0 violations\n", a, chk.Checks())
		}
		if *verbose {
			fmt.Printf("%-11s cycles=%d insts=%d IPC=%.3f\n", a, res.Cycles, res.Instructions(), res.IPC())
			printCoherence(&res.MemReport)
		}
		if prof := profs[i]; prof != nil {
			fmt.Printf("--- %s: data accesses by 256KB region (top 12 by total latency) ---\n", a)
			prof.print(os.Stdout, 12)
		}
		if ring := rings[i]; ring != nil {
			if err := writeTraces(ring, *traceChrome, *traceJSONL, string(a), len(arches) > 1); err != nil {
				fmt.Fprintln(os.Stderr, "cmpsim:", err)
				os.Exit(1)
			}
			if ring.Dropped() > 0 {
				fmt.Fprintf(os.Stderr, "cmpsim: %s: trace ring dropped %d of %d events (raise -trace-buf)\n",
					a, ring.Dropped(), ring.Emitted())
			}
		}
		if res.Metrics != nil {
			fmt.Printf("--- %s: interval metrics ---\n%s", a, res.Metrics.String())
		}
		if p := res.Profile; p != nil {
			p.Workload = *wlName
			if *profFlag {
				p.WriteReport(os.Stdout, *profTop)
			}
			if *profOut != "" {
				path := splicePath(*profOut, string(a), len(arches) > 1)
				f, err := os.Create(path)
				if err == nil {
					err = p.WriteJSON(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "cmpsim:", err)
					os.Exit(1)
				}
				fmt.Printf("wrote profile to %s\n", path)
			}
		}
	}

	if _, ok := runs[core.SharedMem]; !ok {
		// No baseline for normalization; print raw numbers in run order.
		for _, a := range arches {
			b := stats.FromRun(runs[a])
			fmt.Printf("%-11s total=%.0f cpu=%.0f istall=%.0f dstall=%.0f\n",
				a, b.Total, b.CPU, b.IStall, b.MemStall())
		}
		return
	}
	fig := stats.BuildFigure("Result", *wlName, core.CPUModel(*model), runs)
	fmt.Print(fig.String())
	fmt.Print(fig.Chart())

	if *model == "mxs" {
		fmt.Println("\nIPC breakdown (Figure 11 style):")
		for _, a := range arches {
			row := stats.IPCBreakdown(runs[a])
			fmt.Printf("%-11s IPC=%.3f lossI=%.3f lossD=%.3f lossPipe=%.3f\n",
				a, row.IPC, row.LossI, row.LossD, row.LossPipe)
		}
	}
}
