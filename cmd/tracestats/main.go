// Command tracestats reduces a JSONL event trace (written by
// cmpsim -trace-out or experiments -trace-out) to the summaries that
// matter when hunting contention: the top-N most-contended resource
// sites, per-CPU structural-stall tallies, the most-invalidated lines,
// and per-level data-access latency.
//
//	cmpsim -workload eqntott -arch shared-l2 -trace-out run.jsonl
//	tracestats -n 10 run.jsonl
//	gzip -dc run.jsonl.gz | tracestats -      # "-" or no arg = stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cmpsim/internal/obsv"
)

func main() {
	topN := flag.Int("n", 10, "show the top N entries of each table")
	flag.Parse()

	// "-" (or no argument) reads the trace from stdin, so tracestats
	// composes with streamed pipelines (decompressors, remote copies):
	//   gzip -dc run.jsonl.gz | tracestats -
	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestats:", err)
			os.Exit(1)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}
	events, err := obsv.ReadJSONL(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestats:", err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Printf("%s: empty trace\n", name)
		return
	}
	first, last := events[0].Cycle, events[0].Cycle
	for _, ev := range events {
		if ev.Cycle < first {
			first = ev.Cycle
		}
		if ev.Cycle > last {
			last = ev.Cycle
		}
	}
	fmt.Printf("%s: %d events over cycles [%d, %d]\n\n", name, len(events), first, last)

	contention(events, *topN)
	structural(events)
	invalidations(events, *topN)
	latency(events)
}

// site is one (resource, bank) arbitration point.
type site struct {
	res  obsv.ResID
	bank uint32
}

// contention ranks resource sites by total wait cycles — the cycles
// requests spent queued behind earlier grants, the direct currency of
// the paper's contention discussion.
func contention(events []obsv.Event, topN int) {
	type tally struct {
		grants uint64
		wait   uint64
		busy   uint64
	}
	sites := map[site]*tally{}
	for _, ev := range events {
		if ev.Kind != obsv.EvGrant {
			continue
		}
		k := site{ev.Res, ev.Addr}
		t := sites[k]
		if t == nil {
			t = &tally{}
			sites[k] = t
		}
		t.grants++
		t.wait += uint64(ev.Arg2)
		t.busy += uint64(ev.Arg)
	}
	if len(sites) == 0 {
		fmt.Println("contention: no grant events in trace")
		return
	}
	keys := make([]site, 0, len(sites))
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := sites[keys[i]], sites[keys[j]]
		if a.wait != b.wait {
			return a.wait > b.wait
		}
		if keys[i].res != keys[j].res {
			return keys[i].res < keys[j].res
		}
		return keys[i].bank < keys[j].bank
	})
	if len(keys) > topN {
		keys = keys[:topN]
	}
	fmt.Printf("top contention sites (by wait cycles):\n")
	fmt.Printf("  %-14s %10s %12s %12s %10s\n", "site", "grants", "wait", "busy", "wait/grant")
	for _, k := range keys {
		t := sites[k]
		fmt.Printf("  %-14s %10d %12d %12d %10.2f\n",
			fmt.Sprintf("%s[%d]", k.res, k.bank), t.grants, t.wait, t.busy,
			float64(t.wait)/float64(t.grants))
	}
	fmt.Println()
}

// structural tallies the per-CPU events that stall pipelines outright.
func structural(events []obsv.Event) {
	type tally struct {
		mshrFull, wbufFull, robFull, flush, mispredict uint64
	}
	perCPU := map[int8]*tally{}
	for _, ev := range events {
		var f func(*tally)
		switch ev.Kind {
		case obsv.EvMSHRFull:
			f = func(t *tally) { t.mshrFull++ }
		case obsv.EvWBufFull:
			f = func(t *tally) { t.wbufFull++ }
		case obsv.EvROBFull:
			f = func(t *tally) { t.robFull++ }
		case obsv.EvFlush:
			f = func(t *tally) { t.flush++ }
		case obsv.EvMispredict:
			f = func(t *tally) { t.mispredict++ }
		default:
			continue
		}
		t := perCPU[ev.CPU]
		if t == nil {
			t = &tally{}
			perCPU[ev.CPU] = t
		}
		f(t)
	}
	if len(perCPU) == 0 {
		fmt.Println("structural stalls: none in trace")
		fmt.Println()
		return
	}
	cpus := make([]int8, 0, len(perCPU))
	for c := range perCPU {
		cpus = append(cpus, c)
	}
	sort.Slice(cpus, func(i, j int) bool { return cpus[i] < cpus[j] })
	fmt.Printf("structural stalls per CPU (-1 = shared):\n")
	fmt.Printf("  %4s %10s %10s %10s %8s %11s\n", "cpu", "mshr-full", "wbuf-full", "rob-full", "flush", "mispredict")
	for _, c := range cpus {
		t := perCPU[c]
		fmt.Printf("  %4d %10d %10d %10d %8d %11d\n",
			c, t.mshrFull, t.wbufFull, t.robFull, t.flush, t.mispredict)
	}
	fmt.Println()
}

// invalidations ranks lines by coherence invalidations received — the
// sharing hot spots.
func invalidations(events []obsv.Event, topN int) {
	type tally struct {
		actions uint64 // invalidating transactions targeting the line
		copies  uint64 // cache copies removed
	}
	lines := map[uint32]*tally{}
	for _, ev := range events {
		switch ev.Kind {
		case obsv.EvInval, obsv.EvUpgrade, obsv.EvInclEvict:
			t := lines[ev.Addr]
			if t == nil {
				t = &tally{}
				lines[ev.Addr] = t
			}
			t.actions++
			t.copies += uint64(ev.Arg)
		}
	}
	if len(lines) == 0 {
		fmt.Println("invalidations: none in trace")
		fmt.Println()
		return
	}
	keys := make([]uint32, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := lines[keys[i]], lines[keys[j]]
		if a.copies != b.copies {
			return a.copies > b.copies
		}
		return keys[i] < keys[j]
	})
	if len(keys) > topN {
		keys = keys[:topN]
	}
	fmt.Printf("most-invalidated lines:\n")
	fmt.Printf("  %-12s %10s %12s\n", "line", "actions", "copies lost")
	for _, k := range keys {
		t := lines[k]
		fmt.Printf("  0x%08x %10d %12d\n", k, t.actions, t.copies)
	}
	fmt.Println()
}

// latency summarizes data-access service latency per hierarchy level.
func latency(events []obsv.Event) {
	var h obsv.LatencyHist
	for _, ev := range events {
		switch ev.Kind {
		case obsv.EvLoad, obsv.EvStore:
			h.Observe(ev.Level, uint64(ev.Arg))
		}
	}
	fmt.Printf("data-access service latency (cycles):\n%s", h.String())
}
