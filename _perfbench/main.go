// Command perfbench is the repository's end-to-end benchmark. It runs
// one figure-campaign workload against the simulator's default
// configuration for a fixed host-time budget, checks every job's output
// against pinned values, and prints host-time metrics, ending with one
// JSON line. README.md describes the workloads and metrics.
//
//	perfbench --workload mipsy-figs --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"sim_insts_per_s", "insts/s"},
	{"setup_s", "s"},
	{"peak_live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, model := range []string{"mxs", "mipsy"} {
		p := "cpu." + model + "."
		out = append(out,
			metricDef{p + "tick_calls", "count"}, metricDef{p + "tick_self_s", "s"},
			metricDef{p + "tick_self_ns", "ns"}, metricDef{p + "useful_tick_frac", "frac"})
	}
	out = append(out,
		metricDef{"core.run_s", "s"}, metricDef{"core.sched_self_s", "s"},
		metricDef{"core.ticked_cycles", "count"}, metricDef{"core.skipped_cycles", "count"},
		metricDef{"core.skip_frac", "frac"}, metricDef{"core.ns_per_ticked_cycle", "ns"})
	for _, a := range []string{"shared-l1", "shared-l2", "shared-mem"} {
		p := "memsys." + a + "."
		out = append(out,
			metricDef{p + "access_calls", "count"}, metricDef{p + "access_ns", "ns"},
			metricDef{p + "refused_frac", "frac"}, metricDef{p + "ifetch_calls", "count"},
			metricDef{p + "ifetch_ns", "ns"}, metricDef{p + "self_s", "s"},
			metricDef{p + "l1d_miss_frac", "frac"}, metricDef{p + "l2_miss_frac", "frac"})
	}
	return append(out,
		metricDef{"workload.build_s", "s"}, metricDef{"workload.configure_s", "s"},
		metricDef{"workload.validate_s", "s"}, metricDef{"core.new_machine_s", "s"},
		metricDef{"runner.worker_busy_frac", "frac"}, metricDef{"runner.queue_wait_s", "s"},
		metricDef{"runner.jobs", "count"},
		metricDef{"host.alloc_mb", "MB"}, metricDef{"host.gc_cycles", "count"},
		metricDef{"host.gc_cpu_frac", "frac"}, metricDef{"host.peak_rss_mb", "MB"},
		metricDef{"host.ref_ms", "ms"},
		metricDef{"trace.overhead_frac", "frac"}, metricDef{"trace.sample_every", "count"},
		metricDef{"trace.clock_pair_ns", "ns"})
}()

// setupBlock is the least host time an untraced run spends on set-up
// rounds, which measure setup_s, before its campaigns, and again after
// them: the rounds sample the host at both ends of the run but do not
// disturb the campaigns.
const setupBlock = 500 * time.Millisecond

// spansDir is where a traced run writes its job-phase spans, relative
// to the working directory.
const spansDir = ".bench_build/spans"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the job-order permutations")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	pinsOut := fs.String("write-pins", "", "record every workload's outputs to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinsOut != "" {
		if err := writePins(*pinsOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload <name>, --seconds > 0 and --trace 0 or 1:", err)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	jobs, err := w.jobs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	start := time.Now()
	var setups []float64
	setUp := func() error {
		s, err := setupRounds(jobs, setupBlock)
		setups = append(setups, s...)
		return err
	}
	if *trace == 0 {
		if err := setUp(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	// Leave as much time after the campaigns as the first block took.
	budget := time.Duration(*seconds*float64(time.Second)) - 2*time.Since(start)
	iters, refs := measure(w, jobs, *seed, budget, *trace == 1)
	if *trace == 0 {
		if err := setUp(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	ref := mean(refs)

	attempted, failed := 0, 0
	for _, c := range iters {
		bad, problems := check(c, pins[w.name])
		for _, p := range problems {
			fmt.Fprintln(stderr, "perfbench: wrong output:", p)
		}
		attempted += len(bad)
		for _, b := range bad {
			if b {
				failed++
			}
		}
	}

	var defs []metricDef
	var samples map[string][]float64
	if *trace == 1 {
		defs, samples = perLayer, tracedSamples(iters)
		samples["host.ref_ms"] = []float64{ref * 1e3}
		if err := writeSpans(w.name, *seed, iters); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		defs, samples = endToEnd, untracedSamples(iters)
		samples["setup_s"] = setups
		scale := refNominal.Seconds() / ref
		for name, v := range samples {
			for i := range v {
				switch name {
				case "cpu_s", "setup_s":
					v[i] *= scale
				case "sim_insts_per_s":
					v[i] /= scale
				}
			}
		}
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d campaigns of %d jobs, trace %d\n",
		w.name, *seed, len(iters), len(jobs), *trace)
	fmt.Fprintf(stdout, "reference kernel: mean %.3f ms CPU over %d calls; CPU times scaled to %v\n",
		ref*1e3, len(refs), refNominal)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		q1, med, q3 := quartiles(samples[d.name])
		fmt.Fprintf(stdout, "%-34s %14.6g %-7s q1 %.6g  q3 %.6g  n %d\n", d.name, med, d.unit, q1, q3, len(samples[d.name]))
		out[d.name] = value{med, d.unit}
	}
	if *trace == 0 {
		var wall []float64
		for _, c := range iters {
			wall = append(wall, c.wall().Seconds())
		}
		q1, med, q3 := quartiles(wall)
		fmt.Fprintf(stdout, "%-34s %14.6g %-7s q1 %.6g  q3 %.6g  n %d (host seconds, not scaled)\n", "wall_s", med, "s", q1, q3, len(wall))
		fmt.Fprintf(stdout, "%-34s %14.6g %-7s (the process's peak resident set)\n", "peak_rss_mb", peakRSSMB(), "MB")
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %-7s (%d of %d jobs)\n", "failed_frac", float64(failed)/float64(attempted), "frac", failed, attempted)
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs campaigns of the workload, each on a fresh seeded
// permutation of its jobs, until the next one would overrun budget; it
// always runs at least one (traced: one untraced and one traced,
// alternating). Each campaign starts after a full garbage collection,
// from the same heap. Between jobs or campaigns it times the reference
// kernel, and it returns those times too.
func measure(w benchWorkload, jobs []job, seed int64, budget time.Duration, traced bool) (iters []*campaign, refs []float64) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	sample := func(prev time.Duration) {
		refs = append(refs, refSample(time.Duration(refShare*float64(prev)))...)
	}
	var took []float64
	var last time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		if w.pooled {
			sample(last)
		}
		order := append([]job(nil), jobs...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		c := runCampaign(w, order, traced && i%2 == 1, sample)
		iters = append(iters, c)
		last = c.wall()
		took = append(took, time.Since(c.start).Seconds())
		_, next, _ := quartiles(took)
		if (!traced || i >= 1) && time.Since(start).Seconds()+next > budget.Seconds() {
			return iters, refs
		}
	}
}

// untracedSamples collects cpu_s, sim_insts_per_s and
// peak_live_heap_mb, one sample per campaign.
func untracedSamples(iters []*campaign) map[string][]float64 {
	s := map[string][]float64{}
	for _, c := range iters {
		var run time.Duration
		var insts uint64
		for i := range c.outs {
			o := &c.outs[i]
			run += o.runCPU
			if o.res != nil {
				insts += o.res.Instructions()
			}
		}
		s["cpu_s"] = append(s["cpu_s"], c.cpu.Seconds())
		s["sim_insts_per_s"] = append(s["sim_insts_per_s"], ratio(float64(insts), run.Seconds()))
		s["peak_live_heap_mb"] = append(s["peak_live_heap_mb"], c.mem.mb())
	}
	return s
}

// tracedSamples collects the per-layer metrics, one sample per traced
// campaign, except for the ones measured once per run: the tracing
// overhead against the untraced campaigns, the sample period and the
// process's peak resident set.
func tracedSamples(iters []*campaign) map[string][]float64 {
	s := map[string][]float64{}
	var plain, traced []float64
	for _, c := range iters {
		if !c.traced {
			plain = append(plain, c.wall().Seconds())
			continue
		}
		traced = append(traced, c.wall().Seconds())
		m := layerMetrics(c)
		for _, d := range perLayer {
			s[d.name] = append(s[d.name], m[d.name])
		}
	}
	_, p, _ := quartiles(plain)
	_, t, _ := quartiles(traced)
	s["trace.overhead_frac"] = []float64{ratio(t, p) - 1}
	s["trace.sample_every"] = []float64{sampleEvery}
	s["host.peak_rss_mb"] = []float64{peakRSSMB()}
	return s
}

// peakRSSMB is the peak resident set of the process so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// quartiles returns the first quartile, median and third quartile of v
// by linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// writeSpans writes the traced campaigns' job-phase spans as a Chrome
// trace: one row per job, whose phase spans nest in its job span.
func writeSpans(workload string, seed int64, iters []*campaign) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	origin := iters[0].start
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / 1e3 }
	for ci, c := range iters {
		if !c.traced {
			continue
		}
		for i := range c.outs {
			o := &c.outs[i]
			id := fmt.Sprintf("%d/%d", ci, i)
			add := func(name string, from, to time.Time, args map[string]any) {
				if from.IsZero() || to.IsZero() {
					return
				}
				if args == nil {
					args = map[string]any{}
				}
				args["job"] = id
				events = append(events, event{name, "X", us(from), float64(to.Sub(from)) / 1e3, ci, i, args})
			}
			add(o.job.key(), o.start, o.end, map[string]any{"failed": o.err != nil})
			add("build", o.start, o.built, nil)
			add("new_machine", o.built, o.cfgStart, nil)
			add("configure", o.cfgStart, o.cfgEnd, nil)
			add("run", o.cfgEnd, o.runEnd, map[string]any{
				"tick_calls": o.tr.ticks, "timed_ticks": o.tr.tick.n,
				"access_calls": o.tr.access, "ifetch_calls": o.tr.ifetch,
			})
			add("validate", o.runEnd, o.end, nil)
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), b, 0o644)
}
