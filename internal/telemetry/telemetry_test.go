package telemetry

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pool"
)

func snap() *Snapshot {
	return &Snapshot{
		Arch: "WsApSr-DB", Benchmark: "bookstore",
		Tiers: []Tier{
			{Name: "web", Requests: 100, Downstream: "servlet",
				Pool: &pool.Stats{Name: "ajp", Capacity: 8, Gets: 40}},
			{Name: "servlet", Requests: 40, Downstream: "db",
				Pool: &pool.Stats{Name: "db", Capacity: 8, Gets: 90, Waits: 12, WaitNanos: 5e6}},
			{Name: "db", Queries: 90, PreparedExecs: 70, TextExecs: 20,
				PlanHits: 85, PlanMisses: 5},
		},
	}
}

func TestDeltaSubtractsCounters(t *testing.T) {
	before := snap()
	after := snap()
	after.Tiers[0].Requests = 250
	after.Tiers[2].Queries = 300
	after.Tiers[1].Pool.WaitNanos = 9e6

	after.Tiers[2].PreparedExecs = 170
	after.Tiers[2].PlanHits = 185

	d := after.Delta(before)
	if got := d.Tier("web").Requests; got != 150 {
		t.Fatalf("web delta = %d, want 150", got)
	}
	if got := d.Tier("db").Queries; got != 210 {
		t.Fatalf("db delta = %d, want 210", got)
	}
	if db := d.Tier("db"); db.PreparedExecs != 100 || db.PlanHits != 100 ||
		db.TextExecs != 0 || db.PlanMisses != 0 {
		t.Fatalf("prepared/plan-cache deltas: %+v", db)
	}
	if got := d.Tier("servlet").Pool.WaitNanos; got != 4e6 {
		t.Fatalf("pool wait delta = %d, want 4e6", got)
	}
	// Original snapshots are untouched.
	if after.Tier("web").Requests != 250 || before.Tier("web").Requests != 100 {
		t.Fatal("Delta mutated its inputs")
	}
}

func TestBottleneckChargesWaitDownstream(t *testing.T) {
	s := snap()
	// The servlet tier's db-client pool recorded wait time: the database
	// is what saturated, not the servlet holding the pool.
	if got := s.Bottleneck(); got != "db" {
		t.Fatalf("bottleneck = %q, want db (servlet's db pool queued)", got)
	}
	// Waits on the web tier's AJP pool instead indict the servlet tier.
	s.Tiers[1].Pool.WaitNanos = 0
	s.Tiers[0].Pool.WaitNanos = 3e6
	if got := s.Bottleneck(); got != "servlet" {
		t.Fatalf("bottleneck = %q, want servlet (web's AJP pool queued)", got)
	}
	// With no pool ever waiting anywhere, fall back to work volume.
	s.Tiers[0].Pool.WaitNanos = 0
	if got := s.Bottleneck(); got != "web" {
		t.Fatalf("bottleneck = %q, want web (most requests)", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := snap()
	back, err := Parse(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if back.Arch != s.Arch || len(back.Tiers) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Tier("servlet").Pool.WaitNanos != 5e6 {
		t.Fatalf("pool stats lost: %+v", back.Tier("servlet").Pool)
	}
}

func TestFormatMarksBottleneck(t *testing.T) {
	out := snap().Format()
	if !strings.Contains(out, "bottleneck: db") {
		t.Fatalf("missing bottleneck line:\n%s", out)
	}
	if !strings.Contains(out, "*db") {
		t.Fatalf("bottleneck tier not marked:\n%s", out)
	}
	if !strings.Contains(out, "db execs: 70 prepared / 20 text") ||
		!strings.Contains(out, "plan cache: 85 hits / 5 misses") {
		t.Fatalf("missing prepared/plan-cache line:\n%s", out)
	}
}

func TestBottleneckChargesTimeoutsDownstream(t *testing.T) {
	s := snap()
	// A quiet pool that nonetheless burned time on expired deadlines: the
	// database was unresponsive, and the verdict names it with the
	// timing-out qualifier.
	s.Tiers[1].Pool.WaitNanos = 0
	s.Tiers[1].Pool.OpTimeouts = 4
	s.Tiers[1].Pool.TimeoutNanos = 8e8
	if got := s.Bottleneck(); got != "db" {
		t.Fatalf("bottleneck = %q, want db (servlet's db pool timing out)", got)
	}
	out := s.Format()
	if !strings.Contains(out, "bottleneck: db (timing out)") {
		t.Fatalf("missing timing-out verdict:\n%s", out)
	}
	if !strings.Contains(out, "servlet->db faults: 4 op timeouts") {
		t.Fatalf("missing fault line:\n%s", out)
	}
}

func TestDeltaAndFormatDegradedCounters(t *testing.T) {
	before := snap()
	before.Tiers[1].SlowEjections = 1
	before.Tiers[1].DegradedRejects = 2
	after := snap()
	after.Tiers[1].SlowEjections = 3
	after.Tiers[1].DegradedEntries = 1
	after.Tiers[1].DegradedExits = 1
	after.Tiers[1].DegradedRejects = 9
	after.Tiers[1].Degraded = true
	after.Tiers[1].Pool.WaitTimeouts = 5
	after.Tiers[1].Pool.Backoffs = 7
	after.Tiers[1].Pool.BackoffNanos = 2e6

	d := after.Delta(before)
	sv := d.Tier("servlet")
	if sv.SlowEjections != 2 || sv.DegradedEntries != 1 || sv.DegradedExits != 1 || sv.DegradedRejects != 7 {
		t.Fatalf("degraded deltas: %+v", sv)
	}
	if !sv.Degraded {
		t.Fatal("Degraded is a gauge and must pass through the delta")
	}
	out := after.Format()
	if !strings.Contains(out, "servlet cluster health: 3 slow ejections; degraded mode 1 entries / 1 exits, 9 writes fast-failed [DEGRADED: read-only]") {
		t.Fatalf("missing cluster-health line:\n%s", out)
	}
	if !strings.Contains(out, "5 pool-wait timeouts, 7 backoffs") {
		t.Fatalf("missing pool fault counters:\n%s", out)
	}
}

// setCounters sets every int64 field of the struct *p to f(field index).
func setCounters(p any, f func(i int) int64) {
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		if fv := v.Field(i); fv.Kind() == reflect.Int64 {
			fv.SetInt(f(i))
		}
	}
}

// checkCounters asserts every int64 field of the struct got equals
// want(field index), and that the struct has counters to check at all.
func checkCounters(t *testing.T, what string, got any, want func(i int) int64) {
	t.Helper()
	v := reflect.ValueOf(got)
	n := 0
	for i := range v.NumField() {
		if fv := v.Field(i); fv.Kind() == reflect.Int64 {
			n++
			if fv.Int() != want(i) {
				t.Errorf("%s: %s = %d, want %d", what, v.Type().Field(i).Name, fv.Int(), want(i))
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no int64 counters found", what)
	}
}

// TestEveryCounterWindowsAndSums enumerates the int64 fields of Tier,
// Replica and AppBackend by reflection, so a new counter is covered
// without editing the test: Delta subtracts each one, Add sums each one,
// and the gauges pass through as the counter rule specifies.
func TestEveryCounterWindowsAndSums(t *testing.T) {
	cur := func(i int) int64 { return int64(1000 + 10*i) }
	prev := func(i int) int64 { return int64(1 + i) }
	diff := func(i int) int64 { return cur(i) - prev(i) }
	sum := func(i int) int64 { return cur(i) + prev(i) }

	tc := Tier{Name: "servlet", Downstream: "db", Degraded: true, Shards: 2,
		Pool: &pool.Stats{Name: "db", Capacity: 8, InUse: 3, Gets: 50}}
	tp := Tier{Name: "servlet", Pool: &pool.Stats{Name: "db", Capacity: 8, InUse: 5, Gets: 20}}
	rc := Replica{ID: 1, Shard: 1, Addr: "a:1", Healthy: true, Pool: &pool.Stats{Gets: 9}}
	rp := Replica{ID: 1, Healthy: false, Pool: &pool.Stats{Gets: 4}}
	ac := AppBackend{ID: "a0", Healthy: true, InFlight: 3, Pool: &pool.Stats{Gets: 7}}
	ap := AppBackend{ID: "a0", InFlight: 9, Pool: &pool.Stats{Gets: 2}}
	setCounters(&tc, cur)
	setCounters(&tp, prev)
	setCounters(&rc, cur)
	setCounters(&rp, prev)
	setCounters(&ac, cur)
	setCounters(&ap, prev)

	after := &Snapshot{Tiers: []Tier{tc}, Replicas: []Replica{rc}, AppBackends: []AppBackend{ac}}
	before := &Snapshot{Tiers: []Tier{tp}, Replicas: []Replica{rp}, AppBackends: []AppBackend{ap}}
	d := after.Delta(before)
	dt, dr, da := d.Tiers[0], d.Replicas[0], d.AppBackends[0]
	checkCounters(t, "Tier delta", dt, diff)
	checkCounters(t, "Replica delta", dr, diff)
	checkCounters(t, "AppBackend delta", da, diff)
	if !dt.Degraded || dt.Shards != 2 || dt.Downstream != "db" || dt.Pool.Gets != 30 || dt.Pool.InUse != 3 {
		t.Errorf("Tier delta gauges: %+v pool %+v", dt, dt.Pool)
	}
	if !dr.Healthy || dr.Addr != "a:1" || dr.Pool.Gets != 5 {
		t.Errorf("Replica delta gauges: %+v", dr)
	}
	if !da.Healthy || da.InFlight != 3 || da.Pool.Gets != 5 {
		t.Errorf("AppBackend delta gauges: %+v", da)
	}
	checkCounters(t, "Tier after", after.Tiers[0], cur) // Delta leaves its inputs alone

	// Add: counters sum; Degraded ORs, Shards keeps the shard count, the
	// receiver's labels stay, pools sum (an absent pool takes the other's).
	st := tp
	st.Add(tc)
	checkCounters(t, "Tier sum", st, sum)
	if !st.Degraded || st.Shards != 2 || st.Downstream != "" || st.Pool.Gets != 70 || st.Pool.Capacity != 16 {
		t.Errorf("Tier sum gauges: %+v pool %+v", st, st.Pool)
	}
	nopool := Tier{}
	nopool.Add(tc)
	if nopool.Pool == nil || nopool.Pool.Gets != 50 {
		t.Errorf("Tier sum into an absent pool: %+v", nopool.Pool)
	}
	sr := rc
	sr.Add(rp)
	checkCounters(t, "Replica sum", sr, sum)
	if sr.Healthy || sr.ID != 1 || sr.Addr != "a:1" || sr.Pool.Gets != 13 {
		t.Errorf("Replica sum gauges (healthy must AND): %+v", sr)
	}
}
