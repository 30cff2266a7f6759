package main

import (
	"testing"
	"time"
)

// Self time is a span minus the union of its children; children that
// overlap, as a broadcast to two replicas does, are each charged in full.
func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{seq: 1, layer: lHTTPD, start: 0, end: 100 * us},
		{seq: 1, layer: lServlet, start: 10 * us, end: 90 * us},
		{seq: 1, layer: lWire, start: 20 * us, end: 50 * us},
		{seq: 1, layer: lWire, start: 30 * us, end: 60 * us},
		{seq: 1, layer: lWire, start: 70 * us, end: 80 * us},
		{seq: 0, layer: lWire, start: 0, end: 500 * us}, // outside the serial phase
	}
	lt := selfTimes(spans, 1, 2)
	if lt.inters != 1 || lt.e2e != 100*us {
		t.Fatalf("inters %d e2e %v", lt.inters, lt.e2e)
	}
	want := map[int]time.Duration{lHTTPD: 20 * us, lServlet: 30 * us, lWire: 70 * us}
	for l, w := range want {
		if lt.self[l] != w {
			t.Errorf("%s self %v, want %v", layerNames[l], lt.self[l], w)
		}
	}
	if lt.calls[lWire] != 3 {
		t.Errorf("wire calls %d, want 3", lt.calls[lWire])
	}
}

func TestChargeTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             repro/internal/sqldb/wire.(*Server).serveConn
             repro/internal/sqldb.(*Session).Exec
-----------+-------------------------------------------------------
      10ms   repro/internal/sqldb.(*WAL).flush (inline)
             repro/internal/sqldb.(*DB).AttachWAL
-----------+-------------------------------------------------------
      30ms   syscall.Syscall
             main.(*relay).pipe
-----------+-------------------------------------------------------
     1.50s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	got, err := chargeTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"wire": 20 * time.Millisecond, "wal": 10 * time.Millisecond,
		"gen": 30 * time.Millisecond, "runtime": 1500 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %v, want %v", k, got[k], v)
		}
	}
}
