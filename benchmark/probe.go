package main

import (
	"runtime"
	"sync"
	"time"
)

// The host probe gives the two ceilings the kernel rows are read against:
// aggregation (SpMM) is bandwidth-bound and combination (GEMM) is
// compute-bound, so each needs its own.

// hostProbe sizes the two probes: the length of each copy array in float32s
// and how long each probe keeps trying for its best pass.
type hostProbe struct {
	elems int
	spend time.Duration
}

// The full probe copies 128 MiB arrays. The HPC rule of thumb wants four
// times the last-level cache; a host whose cache is larger than that (the
// sizing box reports 260 MiB) cannot be given one, so the cache size is
// recorded beside the result and the figure read as a cache-assisted ceiling
// there. The smoke probe only has to produce a number.
var (
	fullProbe  = hostProbe{elems: 32 << 20, spend: 400 * time.Millisecond}
	smokeProbe = hostProbe{elems: 1 << 20, spend: 5 * time.Millisecond}
)

// probeSink keeps the FMA loop's result live.
var probeSink float32

// onWorkers runs fn(worker) on that many goroutines and waits.
func onWorkers(workers int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// copyGBps streams one array into another on every core and returns
// bytes read plus bytes written per second, the STREAM copy convention.
func (hp hostProbe) copyGBps() float64 {
	src := make([]float32, hp.elems)
	dst := make([]float32, hp.elems)
	for i := range src {
		src[i] = float32(i)
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func() {
		onWorkers(workers, func(w int) {
			lo, hi := w*hp.elems/workers, (w+1)*hp.elems/workers
			copy(dst[lo:hi], src[lo:hi])
		})
	}
	pass() // touch dst's pages before timing
	best := 0.0
	for start := time.Now(); time.Since(start) < hp.spend; {
		t0 := time.Now()
		pass()
		if gbps := 2 * 4 * float64(hp.elems) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}

// fmaGflops runs the kernels' own inner loop, y[j] += a*x[j], over
// arrays that stay in the first-level cache, on every core, and returns
// two flops per multiply-add per second. It is the ceiling of Go's scalar
// code generation, which is what the dense kernels are written in.
func (hp hostProbe) fmaGflops() float64 {
	const width, rounds = 1024, 2048
	best := 0.0
	for start := time.Now(); time.Since(start) < hp.spend; {
		sums := make([]float32, runtime.GOMAXPROCS(0))
		t0 := time.Now()
		onWorkers(len(sums), func(w int) {
			x := make([]float32, width)
			y := make([]float32, width)
			for j := range x {
				x[j] = float32(j%7) * 0.25
			}
			for r := 0; r < rounds; r++ {
				a := float32(r%5) * 0.5
				for j, xv := range x {
					y[j] += a * xv
				}
			}
			sums[w] = y[width-1]
		})
		flops := 2 * float64(width) * rounds * float64(len(sums))
		if g := flops / time.Since(t0).Seconds() / 1e9; g > best {
			best = g
		}
		for _, s := range sums {
			probeSink += s
		}
	}
	return best
}
