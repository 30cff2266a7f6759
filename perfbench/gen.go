package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpd/httpclient"
	"repro/internal/workload"
)

// sessionLen is the number of interactions an emulated browser session
// lasts. Each session is a fresh persistent connection with an empty cookie
// jar, so session state (the bookstore's cart) stays bounded, as it does
// with the paper's emulated browsers.
const sessionLen = 50

// requestTimeout bounds one interaction; hitting it is a failure.
const requestTimeout = 10 * time.Second

// sample is one interaction as the generator saw it.
type sample struct {
	inter int
	// at is when the request was due (open loop) or sent (closed loop),
	// from the start of its phase.
	at time.Duration
	// latency runs from when the request was due (open loop) or sent
	// (closed loop) to the end of its response.
	latency time.Duration
	// late is how long after its due time the request was sent.
	late   time.Duration
	failed bool
}

// phaseResult is everything one load phase produced.
type phaseResult struct {
	samples []sample
	// shed counts open-loop arrivals never sent because the phase window
	// closed with them still queued: a backlog the system did not drain.
	shed    int
	elapsed time.Duration
	// firstFailure describes the first failed interaction, for diagnosis.
	firstFailure string
}

func (r *phaseResult) completed() int {
	n := 0
	for _, s := range r.samples {
		if !s.failed {
			n++
		}
	}
	return n
}

func (r *phaseResult) failed() int { return len(r.samples) - r.completed() }

// merge appends another worker's samples.
func (r *phaseResult) merge(o *phaseResult) {
	r.samples = append(r.samples, o.samples...)
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
}

// client is one emulated-browser connection to the web server.
type client struct {
	addr    string
	profile *workload.Profile
	hc      *httpclient.Client
	used    int
}

func newClient(addr string, p *workload.Profile) *client {
	return &client{addr: addr, profile: p}
}

// do performs one interaction and returns why it failed, "" on success.
func (c *client) do(idx int, req workload.Request) string {
	if c.hc == nil || c.used == sessionLen {
		c.close()
		c.hc = httpclient.New(c.addr, requestTimeout)
		c.used = 0
	}
	c.used++
	var resp *httpclient.Response
	var err error
	if req.Method == "POST" {
		resp, err = c.hc.PostForm(req.Path, req.Body)
	} else {
		resp, err = c.hc.Get(req.Path)
	}
	if err != nil {
		c.close() // the next interaction starts a new session
		return req.Path + ": " + err.Error()
	}
	if why := checkPage(c.profile.Name, c.profile.Interactions[idx].Name, resp.Status, resp.Body); why != "" {
		return req.Path + ": " + why
	}
	return ""
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.Close()
		c.hc = nil
	}
}

// arrival is one open-loop request and the offset at which it is due.
type arrival struct {
	due time.Duration
	idx int
	req workload.Request
}

// poissonSchedule draws Poisson arrivals at rate (per minute) over d, taking
// the interactions in order from s.
func poissonSchedule(s *stream, seed int64, ratePerMin float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Minute) / ratePerMin
	var out []arrival
	for t := time.Duration(rng.ExpFloat64() * mean); t < d; t += time.Duration(rng.ExpFloat64() * mean) {
		idx, req := s.next()
		out = append(out, arrival{due: t, idx: idx, req: req})
	}
	return out
}

// runOpenLoop sends the schedule over conns connections. A free connection
// takes the earliest unsent arrival and waits for its due time, so arrivals
// queue in the generator while every connection is busy; latency counts
// from the due time and so includes that queueing. Arrivals still unsent
// once grace has passed after the window closes are shed.
func runOpenLoop(addr string, p *workload.Profile, sched []arrival, conns int, window, grace time.Duration) *phaseResult {
	var next atomic.Int64
	var stopped atomic.Bool
	parts := make([]phaseResult, conns)
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *phaseResult) {
			defer wg.Done()
			c := newClient(addr, p)
			defer c.close()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := t0.Add(a.due)
				sleepUntil(due)
				start := time.Now()
				if start.Sub(t0) > window+grace {
					stopped.Store(true)
					return
				}
				why := c.do(a.idx, a.req)
				end := time.Now()
				part.samples = append(part.samples, sample{inter: a.idx, at: a.due, latency: end.Sub(due), late: start.Sub(due), failed: why != ""})
				if why != "" && part.firstFailure == "" {
					part.firstFailure = why
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(t0)}
	for i := range parts {
		res.merge(&parts[i])
	}
	res.shed = len(sched) - len(res.samples)
	return res
}

// runClosedLoop drives one connection per stream with zero think time for
// d: each connection sends its next request as soon as the previous one
// completes, the paper's emulated-browser method.
func runClosedLoop(addr string, p *workload.Profile, streams []*stream, d time.Duration) *phaseResult {
	parts := make([]phaseResult, len(streams))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(s *stream, part *phaseResult) {
			defer wg.Done()
			c := newClient(addr, p)
			defer c.close()
			for time.Now().Before(deadline) {
				idx, req := s.next()
				t := time.Now()
				why := c.do(idx, req)
				part.samples = append(part.samples, sample{inter: idx, at: t.Sub(start), latency: time.Since(t), failed: why != ""})
				if why != "" && part.firstFailure == "" {
					part.firstFailure = why
				}
			}
		}(streams[w], &parts[w])
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// sleepUntil blocks until t in a kernel sleep rather than on a Go timer: an
// otherwise idle Go process wakes from its timers up to a millisecond late,
// and that slack would count as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}
