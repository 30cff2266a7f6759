package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpd/httpclient"
	"repro/internal/perfsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func shortRun(t *testing.T, lab *Lab) *workload.Report {
	t.Helper()
	rep, err := lab.Run(workload.Config{
		Clients: 4, Mix: "bidding",
		ThinkMean: 2 * time.Millisecond, SessionMean: 500 * time.Millisecond,
		RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStatusEndpointReportsSaturation is the acceptance check for the
// cross-tier telemetry: after a workload run, GET /status must return
// non-zero per-tier pool and request metrics for every architecture.
func TestStatusEndpointReportsSaturation(t *testing.T) {
	for _, a := range []perfsim.Arch{perfsim.ArchPHP, perfsim.ArchServletSync, perfsim.ArchEJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab := startLab(t, a, perfsim.Auction)
			shortRun(t, lab)

			c := httpclient.New(lab.WebAddr(), 10*time.Second)
			defer c.Close()
			resp, err := c.Get("/status")
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != 200 {
				t.Fatalf("GET /status -> %d: %s", resp.Status, resp.Body)
			}
			snap, err := telemetry.Parse(resp.Body)
			if err != nil {
				t.Fatalf("parse /status: %v\n%s", err, resp.Body)
			}
			if snap.Arch != a.String() {
				t.Fatalf("arch = %q, want %q", snap.Arch, a.String())
			}

			web := snap.Tier("web")
			if web == nil || web.Requests == 0 {
				t.Fatalf("web tier missing or idle: %+v", snap)
			}
			sv := snap.Tier("servlet")
			if sv == nil || sv.Requests == 0 {
				t.Fatalf("servlet tier missing or idle: %+v", snap)
			}
			db := snap.Tier("db")
			if db == nil || db.Queries == 0 {
				t.Fatalf("db tier missing or idle: %+v", snap)
			}
			// Every architecture's hot statements run over the prepared
			// fast path, and repeats must hit the shared plan cache.
			if db.PreparedExecs == 0 {
				t.Fatalf("no prepared executes reported: %+v", db)
			}
			if db.PlanHits == 0 || db.PlanMisses == 0 {
				t.Fatalf("plan cache counters idle: %+v", db)
			}
			if a != perfsim.ArchPHP {
				if web.Pool == nil || web.Pool.Gets == 0 || web.Pool.Dials == 0 {
					t.Fatalf("AJP connector pool idle: %+v", web.Pool)
				}
			}
			if sv.Pool == nil || sv.Pool.Gets == 0 {
				t.Fatalf("servlet downstream pool idle: %+v", sv.Pool)
			}
			if a == perfsim.ArchEJB {
				ejb := snap.Tier("ejb")
				if ejb == nil || ejb.Queries == 0 || ejb.Pool.Gets == 0 {
					t.Fatalf("ejb tier missing or idle: %+v", ejb)
				}
			}
		})
	}
}

// TestRunAttachesTierDelta checks that Lab.Run windows the telemetry: the
// report carries per-tier counters for the run and names a bottleneck.
func TestRunAttachesTierDelta(t *testing.T) {
	lab := startLab(t, perfsim.ArchServletSync, perfsim.Auction)
	rep := shortRun(t, lab)
	if rep.Tiers == nil {
		t.Fatal("report has no tier telemetry")
	}
	web := rep.Tiers.Tier("web")
	if web == nil || web.Requests == 0 {
		t.Fatalf("windowed web tier: %+v", web)
	}
	db := rep.Tiers.Tier("db")
	if db == nil || db.Queries == 0 {
		t.Fatalf("windowed db tier: %+v", db)
	}
	if rep.Bottleneck() == "" {
		t.Fatal("no bottleneck named")
	}
	if rep.FormatTiers() == "" {
		t.Fatal("empty tier report")
	}

	// A second run's window must not double-count the first run's work:
	// the delta should be in the same order of magnitude as its own run,
	// not cumulative. Loose sanity bound: second window's web requests
	// are fewer than the lab's cumulative total.
	rep2 := shortRun(t, lab)
	total := lab.Telemetry().Tier("web").Requests
	if w2 := rep2.Tiers.Tier("web").Requests; w2 <= 0 || w2 >= total {
		t.Fatalf("window not differenced: run2=%d cumulative=%d", w2, total)
	}
}

// TestServletTierSumsClusterCounters: every int64 counter of the servlet
// tier equals the field-wise sum, over the servlet-side cluster clients,
// of ClientStats() (plus the containers' own request counts). The fields
// are enumerated by reflection, so a new cluster counter is covered
// without editing the test.
func TestServletTierSumsClusterCounters(t *testing.T) {
	lab, err := Start(Config{
		Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction, Seed: 5,
		AppReplicas: 2, DBReplicas: 2, DBQueryCache: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	for i := range 6 {
		c := httpclient.New(lab.WebAddr(), 10*time.Second)
		for _, path := range []string{
			fmt.Sprintf("/rubis/viewitem?item=%d", 2+i%3),
			fmt.Sprintf("/rubis/storebid?item=%d&user=3&bid=%d", 2+i%3, 900+i),
		} {
			if resp, err := c.Get(path); err != nil || resp.Status != 200 {
				t.Fatalf("GET %s: %v %v", path, resp, err)
			}
		}
		c.Close()
	}

	sv := lab.Telemetry().Tier("servlet")
	if sv == nil {
		t.Fatal("no servlet tier")
	}
	clients := lab.clusterClients()
	if len(clients) != 2 {
		t.Fatalf("servlet-side cluster clients = %d, want 2", len(clients))
	}
	var want telemetry.Tier
	wv := reflect.ValueOf(&want).Elem()
	for _, cl := range clients {
		cs := reflect.ValueOf(cl.ClientStats())
		for i := range wv.NumField() {
			if f := wv.Field(i); f.Kind() == reflect.Int64 {
				f.SetInt(f.Int() + cs.Field(i).Int())
			}
		}
	}
	for _, c := range lab.containers {
		want.Requests += c.Stats().Requests
	}
	got := reflect.ValueOf(*sv)
	for i := range got.NumField() {
		if f := got.Field(i); f.Kind() == reflect.Int64 && f.Int() != wv.Field(i).Int() {
			t.Errorf("servlet tier %s = %d, want %d (sum over cluster clients)",
				got.Type().Field(i).Name, f.Int(), wv.Field(i).Int())
		}
	}
	if sv.Broadcasts == 0 || sv.BroadcastAcks == 0 || sv.QueryCacheMisses == 0 {
		t.Fatalf("cluster counters idle, the sum checks nothing: %+v", sv)
	}
}
