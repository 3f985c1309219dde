package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// allocTolerance is how far apart the allocation of two units of the
// same run may be. Pooled per-worker scratch is reused in whatever order
// the scheduler hands it out, so allocation repeats only to about 1e-4,
// not exactly; a larger gap means the work itself changed.
const allocTolerance = 0.01

// setupReps is how many times each workload's set-up is repeated; setup_s
// is the median, so one cold start or scheduling hiccup does not move it.
const setupReps = 7

// minUnits is the fewest units of work a run measures, however short
// --seconds is.
const minUnits = 2

// unit is one measured unit of work (a sweep, a search or a suite pass).
type unit struct {
	wall  time.Duration
	cpu   time.Duration // user+sys of this process and its reaped children
	alloc uint64        // bytes allocated by this process
	mem   uint64        // mean bytes held from the OS during the unit
}

// cpuTime returns the user+sys CPU time of this process plus that of
// every child it has waited for.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // cannot fail for these arguments on Linux
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// childPeakRSS returns the peak resident set of the largest child this
// process has waited for (a distrib worker), in bytes.
func childPeakRSS() uint64 {
	var kids syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
		return 0 // cannot fail for these arguments on Linux
	}
	return uint64(kids.Maxrss) * 1024 // Maxrss is in KiB on Linux
}

// memSampleEvery is the sampling period of the memory sampler.
const memSampleEvery = 5 * time.Millisecond

// memHeld is the memory the Go runtime holds from the OS: everything it
// has mapped read-write minus what it has returned. For this pure-Go
// process that is its resident set up to pages never touched.
func memHeld(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// sampleMem samples memHeld every memSampleEvery until stop is closed,
// then sends the mean of the samples on mean. The time average is used
// rather than the peak: the peak is set by the largest trials a seed
// happens to draw and by when the collector runs, and moved by 0.15 of
// its median between seeds, while the mean repeats to about 0.02.
func sampleMem(stop <-chan struct{}, mean chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	sum, n := memHeld(s), uint64(1)
	tick := time.NewTicker(memSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			sum += memHeld(s)
			n++
		case <-stop:
			mean <- sum / n
			return
		}
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measure runs f once and returns its wall time, CPU time, allocation
// and memory.
func measure(f func() error) (unit, error) {
	// Start every unit from a collected heap with free pages returned, so
	// its memory does not depend on how far earlier units grew the heap.
	debug.FreeOSMemory()
	stop, mean := make(chan struct{}), make(chan uint64, 1)
	go sampleMem(stop, mean)
	a0, c0 := totalAlloc(), cpuTime()
	t0 := time.Now()
	err := f()
	u := unit{wall: time.Since(t0)}
	u.cpu = cpuTime() - c0
	u.alloc = totalAlloc() - a0
	close(stop)
	u.mem = <-mean
	return u, err
}

// repeatUntil measures f until the budget is spent, at least minUnits
// times.
func repeatUntil(budget time.Duration, f func() error) ([]unit, error) {
	var units []unit
	start := time.Now()
	for len(units) < minUnits || time.Since(start) < budget {
		u, err := measure(f)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// timeReps runs f n times and returns each run's wall time in seconds.
func timeReps(n int, f func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// recordUnits sets the end-to-end metrics shared by every workload: ops
// is the number of operations one unit completes (trials, nominal trials
// or experiments).
func (r *run) recordUnits(setups []float64, units []unit, ops int) {
	walls := make([]float64, len(units))
	cpus := make([]float64, len(units))
	allocs := make([]float64, len(units))
	mems := make([]float64, len(units))
	for i, u := range units {
		walls[i] = u.wall.Seconds()
		cpus[i] = u.cpu.Seconds()
		allocs[i] = float64(u.alloc) / float64(ops)
		mems[i] = float64(u.mem)
	}
	for i, u := range units {
		fmt.Fprintf(os.Stderr, "perfbench: unit %d: wall %.4fs cpu %.4fs alloc %d B mem %d B\n", i, walls[i], cpus[i], u.alloc, u.mem)
	}
	lo, hi := minMax(allocs)
	r.check(hi <= lo*(1+allocTolerance), "allocation per unit ranges from %.0f to %.0f B per operation", lo, hi)
	runS := median(walls)
	r.set("setup_s", median(setups))
	r.set("run_s", runS)
	r.set("ops_per_s", float64(ops)/runS)
	r.set("cpu_s", median(cpus))
	r.set("alloc_bytes_per_op", median(allocs))
	r.set("mem_mb", median(mems)/(1<<20))
	r.attempted += int64(ops * len(units))
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// digest is the sha256 of v's JSON encoding: the identity of a result.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
