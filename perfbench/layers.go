package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/telemetry"
)

// Shares of --seconds each phase of a per-layer run takes: first the
// untraced stack (warm-up, lowest rung, peak), then the traced one (warm-up,
// serial, serial with one relay delayed, profiled peak).
const (
	untracedWarmShare = 0.08
	untracedLowShare  = 0.14
	untracedPeakShare = 0.18
	tracedWarmShare   = 0.08
	serialShare       = 0.20
	delayedShare      = 0.14
	tracedPeakShare   = 0.18
)

// relayDelay is what the fidelity check adds to every wire exchange.
const relayDelay = 200 * time.Microsecond

// delayedBase numbers the delayed serial phase's interactions apart from
// the first serial phase's.
const delayedBase = 1 << 40

// perLayer reports the per-layer metrics. Counters come from the untraced
// stack's telemetry over its peak phase; self times from the traced stack's
// serial phase, where one interaction is in flight at a time; CPU from a
// profile of the traced stack's peak phase.
func perLayer(w *workloadDef, seed int64, total time.Duration) (*result, error) {
	st, _, err := start(w, seed, 1)
	if err != nil {
		return nil, err
	}
	addr, p := st.lab.WebAddr(), st.lab.Profile()
	d := newDriver(w, seed, p)
	res := d.res
	if _, err := d.closed(addr, phaseWarm, conns, scale(total, untracedWarmShare), false); err != nil {
		st.close()
		return nil, err
	}
	low, err := d.rung(addr, phaseLow0, lowStep*w.nominal, scale(total, untracedLowShare))
	if err != nil {
		st.close()
		return nil, err
	}
	before, rt0 := st.lab.Telemetry(), readRuntime()
	peak, err := d.closed(addr, phasePeak, conns, scale(total, untracedPeakShare), true)
	if err != nil {
		st.close()
		return nil, err
	}
	delta, rt1 := st.lab.Telemetry().Delta(before), readRuntime()
	checkRun(st, d, delta)
	st.close()
	untracedIPM := windowedRate(peak)

	cfg, err := config(w, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.DBDataDir)
	t := newTracer()
	ts, err := startTraced(cfg, t)
	if err != nil {
		return nil, fmt.Errorf("traced stack: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			ts.close()
		}
	}()
	if _, err := d.closed(ts.addr, phaseWarm, conns, scale(total, tracedWarmShare), false); err != nil {
		return nil, err
	}
	if err := d.serial(ts, phaseSerial, 1, scale(total, serialShare)); err != nil {
		return nil, err
	}
	t.delay[lWire].Store(int64(relayDelay))
	if err := d.serial(ts, phaseDelayed, delayedBase, scale(total, delayedShare)); err != nil {
		return nil, err
	}
	t.delay[lWire].Store(0)
	c0 := ts.counts()
	var tpeak *phaseResult
	var runErr error
	cpu, err := profile(func() {
		tpeak, runErr = d.closed(ts.addr, phasePeak, conns, scale(total, tracedPeakShare), true)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	traced := ts.counts().sub(c0)
	ts.close() // flushes the relays' last exchanges
	closed = true
	tracedIPM := windowedRate(tpeak)

	plain := selfTimes(t.spans, 1, delayedBase)
	delayed := selfTimes(t.spans, delayedBase, 2*delayedBase)
	checkFidelity(res, delta, traced, plain, delayed)

	web, db := tierOf(delta, "web"), tierOf(delta, "db")
	app := tierOf(delta, "servlet")
	ejbT := tierOf(delta, "ejb")
	n := float64(max(web.Requests, 1))
	perK := func(v int64) float64 { return 1000 * float64(v) / n }
	per := func(v int64) float64 { return float64(v) / n }
	pct := func(a, b int64) float64 { return 100 * float64(a) / float64(max(b, 1)) }
	selfUS := func(l int) float64 { return plain.perInter(plain.self[l]) }
	rtt := func(l int) float64 {
		return float64(plain.total[l].Microseconds()) / float64(max(plain.calls[l], 1))
	}
	cpuUS := func(layer string) float64 {
		return float64(cpu[layer].Microseconds()) / float64(max(tpeak.completed(), 1))
	}
	var rmiCalls, poolWait, lag int64
	if app.Downstream == "ejb" && app.Pool != nil {
		rmiCalls = app.Pool.Gets
	}
	for _, tr := range delta.Tiers {
		if tr.Pool != nil {
			poolWait += tr.Pool.WaitNanos
		}
	}
	for _, r := range delta.Replicas {
		lag += r.LagNanos
	}
	qHits := app.QueryCacheHits + ejbT.QueryCacheHits
	qMiss := app.QueryCacheMisses + ejbT.QueryCacheMisses
	walPerFsync := 0.0
	if db.WALFsyncs > 0 {
		walPerFsync = float64(db.WALAppends) / float64(db.WALFsyncs)
	}

	res.add("httpd.self_us", selfUS(lHTTPD), "us")
	res.add("httpd.cpu_us", cpuUS("httpd"), "us")
	res.add("httpd.resp_kb", float64(web.Bytes)/n/1024, "kB")
	res.add("lb.self_us", selfUS(lLB), "us")
	res.add("lb.page_hit_pct", pct(web.PageCacheHits, web.Requests), "%")
	res.add("lb.invalidations_per_kinter", perK(web.PageCacheInvalidations), "1/kinter")
	res.add("ajp.self_us", selfUS(lAJP), "us")
	res.add("ajp.cpu_us", cpuUS("ajp"), "us")
	res.add("servlet.self_us", selfUS(lServlet), "us")
	res.add("servlet.cpu_us", cpuUS("servlet"), "us")
	res.add("rmi.calls_per_inter", per(rmiCalls), "1/inter")
	res.add("rmi.rtt_us", rtt(lRMI), "us")
	res.add("rmi.cpu_us", cpuUS("rmi"), "us")
	// The relay in front of the RMI listener times each call from outside;
	// what the call spends beyond its database round trips is the EJB
	// container's, with the RMI server's decoding and encoding.
	res.add("ejb.self_us", selfUS(lRMI), "us")
	res.add("ejb.cpu_us", cpuUS("ejb"), "us")
	res.add("ejb.loads_per_inter", per(ejbT.Loads), "1/inter")
	res.add("ejb.stores_per_inter", per(ejbT.Stores), "1/inter")
	res.add("cluster.cpu_us", cpuUS("cluster"), "us")
	res.add("cluster.query_hit_pct", pct(qHits, qHits+qMiss), "%")
	res.add("cluster.broadcasts_per_inter", per(app.Broadcasts+ejbT.Broadcasts), "1/inter")
	res.add("cluster.replica_lag_us", per(lag)/1000, "us")
	res.add("pool.wait_us", per(poolWait)/1000, "us")
	res.add("wire.rtt_us", rtt(lWire), "us")
	res.add("wire.rtts_per_inter", float64(plain.calls[lWire])/float64(max(plain.inters, 1)), "1/inter")
	res.add("wire.kb_per_inter", float64(plain.bytes[lWire])/float64(max(plain.inters, 1))/1024, "kB")
	res.add("wire.cpu_us", cpuUS("wire"), "us")
	res.add("sqldb.stmts_per_inter", per(db.Queries), "1/inter")
	res.add("sqldb.exec_cpu_us", cpuUS("sqldb"), "us")
	res.add("sqldb.plan_hit_pct", pct(db.PlanHits, db.PlanHits+db.PlanMisses), "%")
	res.add("sqldb.lock_wait_us", per(db.TxnLockWaitNanos)/1000, "us")
	res.add("sqldb.abort_pct", pct(db.Aborts, db.Commits+db.Aborts), "%")
	res.add("sqldb.snapshot_refreshes_per_kinter", perK(db.SnapshotRefreshes), "1/kinter")
	res.add("sqldb.wal_appends_per_fsync", walPerFsync, "1/fsync")
	res.add("sqldb.wal_fsyncs_per_inter", per(db.WALFsyncs), "1/inter")
	res.add("sqldb.wal_bytes_per_inter", per(db.WALBytes), "B")
	res.add("sqldb.wal_cpu_us", cpuUS("wal"), "us")
	res.add("runtime.alloc_kb_per_inter", float64(rt1.allocBytes-rt0.allocBytes)/n/1024, "kB")
	res.add("runtime.gc_cpu_pct", 100*(rt1.gcCPU-rt0.gcCPU)/math.Max((rt1.cpu-rt0.cpu).Seconds(), 1e-9), "%")
	res.add("runtime.peak_cores", (rt1.cpu-rt0.cpu).Seconds()/peak.elapsed.Seconds(), "cores")
	res.add("gen.late_ms_max", ms(maxLate(low.res)), "ms")
	res.add("trace.overhead_pct", 100*(untracedIPM-tracedIPM)/untracedIPM, "%")
	fmt.Printf("peak: untraced %.0f ipm, traced %.0f ipm; serial phase %d interactions, delayed %d\n",
		untracedIPM, tracedIPM, plain.inters, delayed.inters)
	return res, nil
}

// serial runs one connection over the phase's stream for dur, numbering
// the interactions from base so that every span they cause carries the
// number.
func (d *driver) serial(ts *tracedStack, phase int, base int64, dur time.Duration) error {
	ss, err := d.streams(phase, 1)
	if err != nil {
		return err
	}
	c := newClient(ts.addr, d.p)
	defer c.close()
	r := &phaseResult{}
	begin := time.Now()
	for seq := base; time.Since(begin) < dur; seq++ {
		idx, req := ss[0].next()
		ts.t.seq.Store(seq)
		start := ts.t.now()
		why := c.do(idx, req)
		end := ts.t.now()
		ts.t.seq.Store(0)
		ts.t.record(span{seq: seq, layer: lHTTPD, start: start, end: end})
		r.samples = append(r.samples, sample{inter: idx, latency: end - start, failed: why != ""})
		if why != "" && r.firstFailure == "" {
			r.firstFailure = why
		}
	}
	r.elapsed = time.Since(begin)
	d.tally(r, false)
	return nil
}

func tierOf(s *telemetry.Snapshot, name string) telemetry.Tier {
	if t := s.Tier(name); t != nil {
		return *t
	}
	return telemetry.Tier{}
}

func (c counts) sub(o counts) counts {
	return counts{c.inters - o.inters, c.stmts - o.stmts, c.broadcasts - o.broadcasts, c.rmiCalls - o.rmiCalls, c.pageHits - o.pageHits}
}

var layerNames = [numLayers]string{"httpd", "lb", "ajp", "servlet", "rmi", "wire"}

// checkFidelity holds the tracer to the untraced stack: the traced
// assembly must do the same work per interaction, the self times must
// account for the serial latency, and a delay added at one relay must show
// up in that layer's self time alone.
func checkFidelity(res *result, delta *telemetry.Snapshot, traced counts, plain, delayed layerTimes) {
	web, db := tierOf(delta, "web"), tierOf(delta, "db")
	app, ejbT := tierOf(delta, "servlet"), tierOf(delta, "ejb")
	n := float64(max(web.Requests, 1))
	tn := float64(max(traced.inters, 1))
	var rmiCalls int64
	if app.Downstream == "ejb" && app.Pool != nil {
		rmiCalls = app.Pool.Gets
	}
	same := []struct {
		name             string
		untraced, traced float64
		slack            float64 // absolute tolerance beside the relative 10%
	}{
		{"sqldb.stmts_per_inter", float64(db.Queries) / n, float64(traced.stmts) / tn, 0.1},
		{"cluster.broadcasts_per_inter", float64(app.Broadcasts+ejbT.Broadcasts) / n, float64(traced.broadcasts) / tn, 0.02},
		{"rmi.calls_per_inter", float64(rmiCalls) / n, float64(traced.rmiCalls) / tn, 0.1},
		{"lb.page_hit_pct", 100 * float64(web.PageCacheHits) / n, 100 * float64(traced.pageHits) / tn, 2},
	}
	for _, c := range same {
		diff := math.Abs(c.untraced - c.traced)
		ok := diff <= math.Max(0.1*math.Max(c.untraced, c.traced), c.slack)
		fmt.Printf("fidelity %-30s untraced %10.4f traced %10.4f ok %v\n", c.name, c.untraced, c.traced, ok)
		if !ok {
			res.problem("traced stack differs from core.Start on %s: %.4f vs %.4f", c.name, c.traced, c.untraced)
		}
	}

	var sum time.Duration
	for l := 0; l < numLayers; l++ {
		sum += plain.self[l]
	}
	ratio := float64(sum) / float64(max(plain.e2e, 1))
	fmt.Printf("fidelity self times sum to %.3f of the serial latency (%.1f us per interaction over %d)\n",
		ratio, plain.perInter(plain.e2e), plain.inters)
	if plain.inters == 0 || math.Abs(ratio-1) > 0.10 {
		res.problem("per-layer self times sum to %.3f of the serial end-to-end latency", ratio)
	}

	// The delay added at the wire relay must lengthen the median wire
	// exchange by at least 70% of it (a median, because fsync stalls make
	// the mean exchange of a durable workload move on their own), and the
	// other layers' self times together may move by at most a fifth of the
	// delay per interaction, plus 20 us of run-to-run noise.
	shift := time.Duration(median(delayed.wireRTTs) - median(plain.wireRTTs))
	fmt.Printf("fidelity delayed wire relay: median wire exchange %v longer\n", shift)
	if shift < relayDelay*7/10 {
		res.problem("a %v delay at the wire relay lengthened the median wire exchange by %v", relayDelay, shift)
	}
	want := float64(relayDelay.Microseconds()) * float64(delayed.calls[lWire]) / float64(max(delayed.inters, 1))
	var others float64
	for l := 0; l < numLayers; l++ {
		a, b := plain.perInter(plain.self[l]), delayed.perInter(delayed.self[l])
		fmt.Printf("fidelity delayed wire relay: %-8s self %9.2f -> %9.2f us\n", layerNames[l], a, b)
		if l != lWire {
			others += math.Abs(b - a)
		}
	}
	if others > 0.2*want+20 {
		res.problem("a %v delay at the wire relay (%.1f us per interaction) moved the other layers' self times by %.1f us", relayDelay, want, others)
	}
}
