// Package stats provides the measurement utilities the experiment harness
// uses: latency reservoirs with percentiles, counters, and interval
// throughput — the role the sysstat post-mortem analysis plays in the
// paper's methodology (§4.5).
package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
)

// Reservoir is a fixed-size uniform sample of observations (Vitter's
// algorithm R), safe for concurrent use.
type Reservoir struct {
	mu    sync.Mutex
	cap   int
	seen  int64
	vals  []float64
	sum   float64
	sumSq float64
	min   float64
	max   float64
	r     *rand.Rand
}

// NewReservoir creates a reservoir keeping up to capacity samples.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Reservoir{cap: capacity, r: rand.New(rand.NewSource(seed)),
		min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation.
func (rv *Reservoir) Add(v float64) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.seen++
	rv.sum += v
	rv.sumSq += v * v
	if v < rv.min {
		rv.min = v
	}
	if v > rv.max {
		rv.max = v
	}
	if len(rv.vals) < rv.cap {
		rv.vals = append(rv.vals, v)
		return
	}
	if j := rv.r.Int63n(rv.seen); j < int64(rv.cap) {
		rv.vals[j] = v
	}
}

// Count returns the number of observations.
func (rv *Reservoir) Count() int64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.seen
}

// Mean returns the exact mean over all observations (not just the sample).
func (rv *Reservoir) Mean() float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.seen == 0 {
		return 0
	}
	return rv.sum / float64(rv.seen)
}

// StdDev returns the exact population standard deviation.
func (rv *Reservoir) StdDev() float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.seen == 0 {
		return 0
	}
	m := rv.sum / float64(rv.seen)
	v := rv.sumSq/float64(rv.seen) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 when empty).
func (rv *Reservoir) Min() float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.seen == 0 {
		return 0
	}
	return rv.min
}

// Max returns the largest observation (0 when empty).
func (rv *Reservoir) Max() float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.seen == 0 {
		return 0
	}
	return rv.max
}

// Percentile estimates the p-th percentile (0 < p < 100) from the sample.
func (rv *Reservoir) Percentile(p float64) float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if len(rv.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), rv.vals...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Counter is a concurrent event counter with per-key breakdown.
type Counter struct {
	mu    sync.Mutex
	total int64
	byKey map[string]int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{byKey: make(map[string]int64)} }

// Inc adds one event under key.
func (c *Counter) Inc(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	c.byKey[key]++
}

// Total returns the event count.
func (c *Counter) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Get returns the count for one key.
func (c *Counter) Get(key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKey[key]
}

// Snapshot returns a copy of the per-key counts.
func (c *Counter) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byKey))
	for k, v := range c.byKey {
		out[k] = v
	}
	return out
}

// AddCounters adds sign×src to dst in every exported int64 field of the
// struct type T, leaving every other field alone. It states the stack's
// counter rule once: an int64 field of a stats snapshot is a counter
// accumulated since boot, so snapshots of several instances sum (sign 1)
// and two snapshots of one instance subtract into a window (sign -1).
// Gauges and labels use other types and are the caller's to combine.
func AddCounters[T any](dst *T, src T, sign int64) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := range d.NumField() {
		if f := d.Field(i); f.Type() == int64Type && f.CanSet() {
			f.SetInt(f.Int() + sign*s.Field(i).Int())
		}
	}
}

var int64Type = reflect.TypeFor[int64]()
