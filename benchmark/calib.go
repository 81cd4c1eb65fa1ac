package main

import (
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The sandbox this benchmark was sized on shares its two virtual CPUs with
// other tenants: the same register-resident loop takes anything from 1× to
// 2.5× its best time, and the level drifts over tens of seconds, so raw
// times of identical work differ by 15–35 % between runs made minutes
// apart (README.md has the measurements). No statistic of raw times
// repeats within a usable bound there.
//
// The timed pass therefore runs a fixed reference kernel between ops and
// reports host times multiplied by how much faster than nominal the kernel
// ran in this run: times in the milliseconds of a host on which the kernel
// takes its nominal time. The kernel has three parts — the dense kernels'
// inner multiply-add loop on first-level-cache arrays, a gather of 256-byte
// rows like SpMM's, and a streaming copy — each run on one thread and on
// every core, because contention for the core, for the memory system and
// between the process's own threads turned out to vary independently. The
// kernel lives here and not in the library, so a change to the library
// cannot move it.
//
// Two choices below were made on 96 recorded runs, not by taste. A part's
// time in a run is the mean over its slices, not the median: an op lasts
// hundreds of milliseconds and absorbs every burst of contention in that
// span, so it follows the mean slowdown, which the median of short slices
// under-reads. And the six parts combine as a geometric mean of their
// slowdowns, so that each counts by its ratio and not by its length.

// nominalPartMs is what each part of a calibration slice takes on the
// sizing box when nothing contends for it (the tenth percentile of 17 000
// slices): multiply-add, gather and copy on one thread, then on two.
var nominalPartMs = [calibParts]float64{4.7, 3.6, 0.61, 4.9, 3.8, 0.66}

const (
	calibFloats = 1 << 20 // per copy array: 4 MiB, beyond the second-level cache
	calibRows   = 1 << 14 // gathered rows per pass
	calibWidth  = 64      // floats per gathered row
	calibParts  = 6
)

type calibrator struct {
	src, dst [][]float32 // per worker
	rows     [][]int32   // per worker: row offsets into src
	x, y     [][]float32 // per worker: multiply-add operands
	partMs   [calibParts][]float64
}

// offHeap maps floats float32s outside the Go heap, for the life of the
// process. Arrays this size on the heap would raise the collector's target
// and so change how often it runs during the ops being measured.
func offHeap(floats int) []float32 {
	b, err := syscall.Mmap(-1, 0, 4*floats, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mmap: " + err.Error())
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), floats)
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		c.src = append(c.src, offHeap(calibFloats))
		c.dst = append(c.dst, offHeap(calibFloats))
		rng := rand.New(rand.NewSource(int64(w)))
		rows := make([]int32, calibRows)
		for i := range rows {
			rows[i] = int32(rng.Intn(calibFloats/calibWidth)) * calibWidth
		}
		c.rows = append(c.rows, rows)
		x := make([]float32, 1024)
		for j := range x {
			x[j] = float32(j%7) * 0.25
		}
		c.x, c.y = append(c.x, x), append(c.y, make([]float32, 1024))
	}
	return c
}

func (c *calibrator) fma(w int) {
	x, y := c.x[w], c.y[w]
	for r := 0; r < 10000; r++ {
		a := float32(r%5) * 0.5
		for j, xv := range x {
			y[j] += a * xv
		}
	}
}

func (c *calibrator) gather(w int) {
	var out [calibWidth]float32
	for rep := 0; rep < 4; rep++ {
		for _, at := range c.rows[w] {
			for j, v := range c.src[w][at : at+calibWidth] {
				out[j] += 0.5 * v
			}
		}
	}
	c.y[w][0] = out[1]
}

func (c *calibrator) stream(w int) {
	copy(c.dst[w], c.src[w])
	copy(c.src[w], c.dst[w])
}

// slice runs the six parts once and records what each took.
func (c *calibrator) slice() {
	part := 0
	for _, workers := range []int{1, len(c.src)} {
		for _, fn := range []func(int){c.fma, c.gather, c.stream} {
			t0 := time.Now()
			onWorkers(workers, fn)
			c.partMs[part] = append(c.partMs[part], float64(time.Since(t0))/1e6)
			part++
		}
	}
}

// after calibrates for about a tenth of the span just measured, at least
// once.
func (c *calibrator) after(measured time.Duration) {
	t0 := time.Now()
	for ok := true; ok; ok = time.Since(t0) < measured/10 {
		c.slice()
	}
}

// scale is the factor that turns a time measured during the slices taken
// so far into reference-host time. reset starts a new set of slices.
func (c *calibrator) scale() float64 {
	var logSum float64
	for p, part := range c.partMs {
		logSum += math.Log(nominalPartMs[p] / mean(part))
	}
	return math.Exp(logSum / calibParts)
}

func (c *calibrator) reset() {
	for i := range c.partMs {
		c.partMs[i] = c.partMs[i][:0]
	}
}
