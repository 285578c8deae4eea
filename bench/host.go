package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"
)

// refProbeMS is what one host probe takes on the reference host: the 2-vCPU
// Xeon VM baseline.json was recorded on, in its faster spells. Timings are
// reported at that speed; see hostSpeed.
const refProbeMS = 5.0

// hostProbe is a fixed piece of work that runs no repository code: on each
// CPU the Go runtime schedules on, at once, a pointer chase through 1 MiB,
// a sort of 32k integers and SHA-256 over 256 KiB. Running on every CPU
// together matters: the workloads keep both CPUs of a 2-vCPU VM busy, and
// two vCPUs that share a physical core are slower together than either is
// alone. The buffers, 1.5 MiB per CPU, are allocated once, so the probe
// allocates nothing while it runs and its cost does not depend on the heap
// or GC settings of the program under test.
//
// Of the probes tried on the baseline's VM (this one, the same on one CPU,
// and a chase through 8 MiB on one or on every CPU), this one tracked the
// four workloads' drift best: over twelve runs of each it cut the spread of
// the timing metrics from 13-33% to 7-19%.
type hostProbe struct {
	cpus []*probeCPU
}

// probeCPU is one CPU's share of a probe.
type probeCPU struct {
	chase      []int32
	keys, work []int32
	data       []byte
	sink       int
}

func newHostProbe() *hostProbe {
	rng := rand.New(rand.NewPCG(1, 2))
	h := &hostProbe{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c := &probeCPU{
			chase: make([]int32, 1<<18),
			keys:  make([]int32, 1<<15),
			work:  make([]int32, 1<<15),
			data:  make([]byte, 1<<18),
		}
		// Sattolo's shuffle: one cycle through every slot, so the chase
		// never settles into a short loop that fits in a smaller cache.
		for i := range c.chase {
			c.chase[i] = int32(i)
		}
		for i := len(c.chase) - 1; i > 0; i-- {
			j := rng.IntN(i)
			c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
		}
		for i := range c.keys {
			c.keys[i] = rng.Int32()
		}
		for i := range c.data {
			c.data[i] = byte(rng.Uint32())
		}
		h.cpus = append(h.cpus, c)
	}
	return h
}

// once runs the probe's work one time on every CPU and returns how long it
// took until all had finished.
func (h *hostProbe) once() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range h.cpus {
		wg.Add(1)
		go func(c *probeCPU) {
			defer wg.Done()
			c.run()
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (c *probeCPU) run() {
	k := int32(0)
	for i := 0; i < 1<<17; i++ {
		k = c.chase[k]
	}
	copy(c.work, c.keys)
	slices.Sort(c.work)
	sum := sha256.Sum256(c.data)
	c.sink += int(k) + int(c.work[0]) + int(sum[0])
}

// hostSpeed puts timings taken at different moments on one scale. Host
// speed on a shared VM drifts by up to a factor of two over minutes, far
// more than the changes the benchmark has to see, and no run length
// averages it away. So every timed segment of a run (each set-up, and each
// fifth of each measured loop) runs between two probes, and its times are
// multiplied by refProbeMS over the mean of the two: what the segment would
// have taken on the reference host. The program under test is idle during
// a probe, and a probe does nothing a change to the program can speed up.
type hostSpeed struct {
	probe *hostProbe
	log   []float64 // every probe's time in ms, in order
}

func newHostSpeed() *hostSpeed { return &hostSpeed{probe: newHostProbe()} }

// measure probes the host: the median of five runs of the probe, in ms.
func (h *hostSpeed) measure() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		ts[i] = ms(h.probe.once())
	}
	m := median(ts)
	h.log = append(h.log, m)
	return m
}

// timed runs f between two probes and returns the factor that puts times
// measured during f at the reference speed.
func (h *hostSpeed) timed(f func()) float64 {
	return h.segments(1, func(int) { f() })[0]
}

// segments runs f(0) to f(n-1) with a probe before, between and after them,
// and returns each call's factor: the reference over the mean of the two
// probes around it.
func (h *hostSpeed) segments(n int, f func(i int)) []float64 {
	fs := make([]float64, n)
	before := h.measure()
	for i := range fs {
		f(i)
		after := h.measure()
		fs[i] = refProbeMS / ((before + after) / 2)
		before = after
	}
	return fs
}

// scaled is d at the reference speed, for factor f.
func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
