package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestReservoirExactStats(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 1; i <= 5; i++ {
		r.Add(float64(i))
	}
	if r.Count() != 5 || r.Mean() != 3 || r.Min() != 1 || r.Max() != 5 {
		t.Fatalf("stats: n=%d mean=%g min=%g max=%g", r.Count(), r.Mean(), r.Min(), r.Max())
	}
	if sd := r.StdDev(); math.Abs(sd-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev %g", sd)
	}
}

func TestReservoirPercentiles(t *testing.T) {
	r := NewReservoir(1000, 1)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if p := r.Percentile(50); math.Abs(p-50.5) > 1 {
		t.Fatalf("p50 %g", p)
	}
	if p := r.Percentile(95); math.Abs(p-95) > 1.5 {
		t.Fatalf("p95 %g", p)
	}
	if r.Percentile(0) != 1 || r.Percentile(100) != 100 {
		t.Fatalf("extremes: %g %g", r.Percentile(0), r.Percentile(100))
	}
}

func TestReservoirSamplingBounded(t *testing.T) {
	r := NewReservoir(64, 2)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i % 500))
	}
	if r.Count() != 10000 {
		t.Fatalf("count %d", r.Count())
	}
	// Percentile still sane on the subsample.
	if p := r.Percentile(50); p < 100 || p > 400 {
		t.Fatalf("p50 from sample: %g", p)
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(8, 1)
	if r.Mean() != 0 || r.Percentile(50) != 0 || r.Min() != 0 || r.Max() != 0 || r.StdDev() != 0 {
		t.Fatal("empty reservoir must report zeros")
	}
}

func TestReservoirConcurrent(t *testing.T) {
	r := NewReservoir(128, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(1)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 || r.Mean() != 1 {
		t.Fatalf("count %d mean %g", r.Count(), r.Mean())
	}
}

// Property: mean lies within [min, max] for any input set.
func TestReservoirMeanBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		ok := true
		for _, v := range vals {
			// The exact-sum accumulators overflow near MaxFloat64; the
			// metric domain is latencies in seconds.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		r := NewReservoir(32, 5)
		for _, v := range vals {
			r.Add(v)
		}
		if r.Count() > 0 {
			m := r.Mean()
			ok = m >= r.Min()-1e-9*math.Abs(r.Min())-1e-9 &&
				m <= r.Max()+1e-9*math.Abs(r.Max())+1e-9
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("a")
	c.Inc("a")
	c.Inc("b")
	if c.Total() != 3 || c.Get("a") != 2 || c.Get("b") != 1 || c.Get("zz") != 0 {
		t.Fatalf("counter: %+v", c.Snapshot())
	}
	snap := c.Snapshot()
	c.Inc("a")
	if snap["a"] != 2 {
		t.Fatal("snapshot must be a copy")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc("k")
			}
		}()
	}
	wg.Wait()
	if c.Get("k") != 4000 {
		t.Fatalf("lost increments: %d", c.Get("k"))
	}
}

// TestAddCounters: exported int64 fields add or subtract; fields of every
// other type — int, bool, float64, string, a named int64 type like
// time.Duration, unexported fields — keep dst's value.
func TestAddCounters(t *testing.T) {
	type snap struct {
		A, B  int64
		N     int
		On    bool
		Ms    float64
		Label string
		D     time.Duration
		c     int64
	}
	a := snap{A: 10, B: 20, N: 1, On: true, Ms: 1.5, Label: "a", D: 7, c: 3}
	b := snap{A: 4, B: 5, N: 9, Ms: 9, Label: "b", D: 9, c: 9}

	sum := a
	AddCounters(&sum, b, 1)
	if want := (snap{A: 14, B: 25, N: 1, On: true, Ms: 1.5, Label: "a", D: 7, c: 3}); sum != want {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
	diff := a
	AddCounters(&diff, b, -1)
	if want := (snap{A: 6, B: 15, N: 1, On: true, Ms: 1.5, Label: "a", D: 7, c: 3}); diff != want {
		t.Fatalf("diff = %+v, want %+v", diff, want)
	}
}
