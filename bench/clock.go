package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The gated time metrics are CPU time, not wall time. On the shared
// two-core VM this benchmark runs on, neighbours take the cores away for
// whole runs at a time: the wall time of an identical round moved by a
// factor of 1.5 to 2.5 between runs while the CPU time it consumed moved
// by a tenth. The host also has phases of minutes in which the cores
// themselves run slower and CPU time rises by up to half, so every run times
// a fixed reference kernel between its rounds and moves its CPU times part
// of the way (refExponent) to the reference's nominal speed. Wall times are
// printed, ungated, in the per-layer ledger.

// processCPU is the CPU time (user + system) of every thread of this
// process so far; threadCPU is that of the calling OS thread. clock_gettime
// reads the scheduler's nanosecond counters, where getrusage is only as
// fine as the scheduler tick.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime(" + errno.Error() + "): the benchmark needs the Linux CPU-time clocks")
	}
	return time.Duration(ts.Nano())
}

// refNominalNs is the reference kernel's CPU time on the host the first
// baseline was taken on, so that scaled times read as that host's ms.
const refNominalNs = 1.0e6

var refBuf = func() []float64 {
	b := make([]float64, 2048) // 16 KB: stays in L1
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	return b
}()

var refSink float64

// refKernel is a fixed piece of floating-point work of about refNominalNs:
// multiply-adds streaming over a cache-resident slice, the instruction mix
// of the repo's own kernels.
func refKernel() {
	acc := 0.0
	for rep := 0; rep < 700; rep++ {
		a := 1 + float64(rep)*1e-9
		for i, v := range refBuf {
			acc += a*v + float64(i&1)
		}
	}
	refSink = acc
}

// refSamples is how many kernel runs one sampling point times.
const refSamples = 5

// refExponent is how much of the reference kernel's slow-down the rounds
// share. On this host a slow phase is the VM's two virtual cores being run
// on less than two real ones, unreported as steal: a kernel sample takes
// its nominal time or twice that, depending on whether the other virtual
// core was busy at that moment, and the mean over a run's samples (not the
// median, which flips between the two) says how much of the run was
// slowed. Rounds feel less of it than the samples do: across sixty runs
// recorded in such phases (kernel mean up to 1.9x) raw CPU time read up to
// 50 % high, CPU time x speed up to 22 % low, and CPU time x speed^0.5 stayed
// within 16 % of the quiet medians with a ten-run spread of at most 0.10
// (README.md has the table).
const refExponent = 0.5

// speedometer collects the reference kernel's CPU times (ns) at points
// spread over a run.
type speedometer struct{ ns []float64 }

// sample times the kernel refSamples times on a pinned thread.
func (s *speedometer) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < refSamples; i++ {
		c0 := threadCPU()
		refKernel()
		s.ns = append(s.ns, float64(threadCPU()-c0))
	}
}

// speed is how fast the run's cores were as the kernel saw them: 1 at its
// nominal time, 0.5 if every sample took twice that.
func (s *speedometer) speed() float64 { return refNominalNs / mean(s.ns) }

// factor turns CPU time spent in this run into CPU time at the reference's
// nominal speed.
func (s *speedometer) factor() float64 { return math.Pow(s.speed(), refExponent) }
