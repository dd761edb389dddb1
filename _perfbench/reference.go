package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is a shared cloud machine. Over
// minutes, the hypervisor takes up to a third of its CPU time away, and
// the work a CPU second does drifts by a fifth as other tenants' load
// comes and goes. Runs of the same code made minutes apart therefore
// differ by more than any useful bound in wall time. The benchmark
// measures CPU time, which excludes the time taken away, and it times a
// fixed reference kernel between jobs to take out the rest: a
// time is reported as the CPU seconds it would have taken had the
// kernel run in refNominal. The kernel is the benchmark's own code, so
// no change to the simulator moves it.

// refNominal is the reference kernel CPU time that reported times are
// scaled to: about its mean on a quiet 2-vCPU cloud host.
const refNominal = 16 * time.Millisecond

// refIters is the length of one reference kernel call.
const refIters = 2_000_000

// refShare is the share of a run spent timing the reference kernel. It
// runs before each job of a workload that runs one job at a time, and
// before each campaign of a pooled one, for this share of the time the
// previous job or campaign took and at least once, so that its samples
// spread over the whole run.
const refShare = 0.05

const refSets = 1 << 16

// refTags and refLRU are the reference kernel's tables, allocated once
// so that a call allocates nothing.
var (
	refTags = make([]uint32, 2*refSets)
	refLRU  = make([]uint8, refSets)
	refSink uint64
)

// refKernel models a 2-way set-associative cache under a pseudo-random
// address stream, mostly over a hot 256 KiB region: table lookups,
// compares and unpredictable branches, the kind of work the simulator's
// own cache models do. It returns the thread CPU time refIters
// references took; the caller holds the OS thread.
func refKernel() time.Duration {
	x := uint64(88172645463325252)
	var misses uint64
	t0 := threadCPU()
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := uint32(x) & 0x3ffffff
		if i&3 != 0 {
			addr &= 0x3ffff
		}
		set := (addr >> 5) & (refSets - 1)
		tag := addr >> 21
		w := refTags[2*set : 2*set+2]
		switch {
		case w[0] == tag:
			refLRU[set] = 1
		case w[1] == tag:
			refLRU[set] = 0
		default:
			misses++
			w[refLRU[set]] = tag
			refLRU[set] ^= 1
		}
	}
	d := threadCPU() - t0
	refSink += misses
	return d
}

// refSample times the kernel for at least the given CPU time and returns
// each call's CPU time. The kernel allocates nothing and is timed by its
// own thread's CPU time, so a garbage collection running on another
// thread does not count against it.
func refSample(atLeast time.Duration) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out []float64
	for spent := time.Duration(0); len(out) == 0 || spent < atLeast; {
		d := refKernel()
		spent += d
		out = append(out, d.Seconds())
	}
	return out
}

// Linux's CPU-time clocks, which clock_gettime reads from the
// scheduler's exact runtime. getrusage is no substitute: it splits a
// thread's runtime into user and system time by tick samples and keeps
// each part from going backwards, so a region that ran for 3 ms can
// read as 0 ms or as 2 ms.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e)) // id is a clock the kernel always has
	}
	return time.Duration(ts.Nano())
}
