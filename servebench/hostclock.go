package main

// The host clock. The benchmark host is shared: over minutes its speed
// drifts by 15-30% with other tenants' load, which moves every time this
// benchmark takes, the program's and the reference's alike. A run
// therefore times a fixed reference computation now and then (between
// requests, never inside one) and reports its times scaled by
// refNominalMS / (median reference time in the run), i.e. in the time the
// same work would take on the host at its nominal speed. The raw figures
// are printed too. The reference is the benchmark's own fixed code:
// sorting, float formatting and map lookups on preallocated data, so it
// allocates nothing and a change to the program cannot change it.

import (
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// refNominalMS is the reference's median time on the host the bounds were
// set on (2-vCPU 2.1 GHz Xeon VM) at its quieter times.
const refNominalMS = 3.0

// refEvery is how often a timed phase pauses to time the reference.
const refEvery = 200 * time.Millisecond

type hostClock struct {
	src, buf  []float64
	keys      []string
	index     map[string]int
	text      []byte
	samples   []float64 // reference times, ms
	paused    time.Duration
	pausedCPU time.Duration
	last      time.Time
	sink      int
}

func newHostClock() *hostClock {
	rng := rand.New(rand.NewSource(1))
	c := &hostClock{src: make([]float64, 16384), buf: make([]float64, 16384), index: map[string]int{}}
	for i := range c.src {
		c.src[i] = rng.Float64()
	}
	for i := 0; i < 4096; i++ {
		k := "k" + strconv.Itoa(rng.Int())
		c.keys = append(c.keys, k)
		c.index[k] = i
	}
	c.text = make([]byte, 0, 64)
	return c
}

// sample times the reference once.
func (c *hostClock) sample() time.Duration {
	start := time.Now()
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	for _, x := range c.buf[:4096] {
		c.text = strconv.AppendFloat(c.text[:0], x, 'g', -1, 64)
		c.sink += len(c.text)
	}
	for r := 0; r < 8; r++ {
		for _, k := range c.keys {
			c.sink += c.index[k]
		}
	}
	d := time.Since(start)
	c.samples = append(c.samples, msOf(d))
	return d
}

// tick samples the reference when refEvery has passed since the last
// sample; timed phases call it between requests and subtract paused from
// their elapsed time.
func (c *hostClock) tick() {
	if time.Since(c.last) >= refEvery {
		cpu := cpuTime()
		c.paused += c.sample()
		c.pausedCPU += cpuTime() - cpu
		c.last = time.Now()
	}
}

// begin starts a timed phase.
func (c *hostClock) begin() {
	c.paused, c.pausedCPU = 0, 0
	c.last = time.Time{}
}

// factor is refNominalMS over the run's median reference time: multiply a
// measured time by it (divide a rate) to express it at nominal speed.
func (c *hostClock) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return refNominalMS / median(c.samples)
}
