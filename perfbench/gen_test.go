package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/datagen"
	"repro/internal/httpd"
	"repro/internal/workload"
)

// homeProfile is a one-interaction auction profile whose page passes the
// content check.
func homeProfile() *workload.Profile {
	return &workload.Profile{
		Name: "auction",
		Interactions: []workload.Interaction{{Name: "home", Build: func(*datagen.Gen) workload.Request {
			return workload.Request{Method: "GET", Path: "/rubis/home"}
		}}},
		Mixes: map[string][]float64{"only": {1}},
	}
}

// An open-loop generator must time each request from when it was due, so a
// stall in the system shows up in the latency of every request that queued
// behind it, and in how late the generator sent them.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	const gap = 10 * time.Millisecond
	var served atomic.Int64
	srv := httpd.NewServer(httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		if served.Add(1) == 5 {
			time.Sleep(stall)
		}
		resp := httpd.NewResponse()
		resp.WriteString("<html><head><title>RUBiS Auction</title></head><body>\n</body></html>\n")
		return resp, nil
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := homeProfile()
	var sched []arrival
	for i := 0; i < 30; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * gap, req: workload.Request{Method: "GET", Path: "/rubis/home"}})
	}
	r := runOpenLoop(addr.String(), p, sched, 1, 30*gap, time.Second)
	if r.failed() != 0 || r.shed != 0 || len(r.samples) != len(sched) {
		t.Fatalf("failed %d shed %d sent %d of %d: %s", r.failed(), r.shed, len(r.samples), len(sched), r.firstFailure)
	}
	// The fifth request stalls; the ones due during the stall wait for the
	// only connection, and their latency must include that wait: the k-th
	// one after the stall waited about stall - k*gap.
	for k := 1; k <= 5; k++ {
		s := r.samples[4+k]
		if want := stall - time.Duration(k)*gap - gap/2; s.latency < want {
			t.Errorf("request %d after the stall: latency %v, want at least %v", k, s.latency, want)
		}
	}
	if late := maxLate(r); late < stall-2*gap {
		t.Errorf("gen.late_ms_max read %v, want about the %v stall", late, stall)
	}
}

// A closed loop never queues: only the stalled request is slow.
func TestClosedLoopTimesFromSend(t *testing.T) {
	var served atomic.Int64
	srv := httpd.NewServer(httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		if served.Add(1) == 3 {
			time.Sleep(50 * time.Millisecond)
		}
		resp := httpd.NewResponse()
		resp.WriteString("<html><head><title>RUBiS Auction</title></head><body>\n</body></html>\n")
		return resp, nil
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := homeProfile()
	s, err := newStream(p, "only", 1, phasePeak, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := runClosedLoop(addr.String(), p, []*stream{s}, 200*time.Millisecond)
	slow := 0
	for _, x := range r.samples {
		if x.latency >= 40*time.Millisecond {
			slow++
		}
	}
	if r.failed() != 0 || slow != 1 {
		t.Fatalf("failed %d, slow %d of %d, want exactly the stalled one", r.failed(), slow, len(r.samples))
	}
}

// The request stream depends on the seed alone.
func TestStreamIsDeterministic(t *testing.T) {
	p := auction.Profile(auction.DefaultScale())
	hash := func(seed int64) string {
		h, err := streamHash(p, auction.BiddingMix, seed, []int{phaseWarm, phasePeak}, 500)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if a, b := hash(7), hash(7); a != b {
		t.Fatalf("seed 7 hashed %s, then %s", a, b)
	}
	if hash(7) == hash(8) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}
