// Command perfbench is the repository's benchmark. It assembles one of the
// paper's middleware configurations in-process with core.Start, drives it
// from this process over at most two connections, checks every response and
// the database invariants afterwards, and prints its metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it prints the per-layer metrics: counters from an untraced run,
// then self times from a traced assembly of the same configuration and CPU
// attribution from a profile. The last line of standard output is one JSON
// object; the lines before it are for people. A failed check exits 1. See
// workloads.go for the workloads and what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// conns is the number of generator connections: the two cores of the
// machine the benchmark was sized on, so the closed loop saturates it.
const conns = 2

// setups is how many times an end-to-end run assembles its configuration;
// setup_s is the median, and the last assembly is the one measured.
const setups = 7

// Shares of --seconds each phase of an end-to-end run takes. The ladder
// phase visits its lowest rate before every second high rung and once after
// the last, the visits sharing lowShare, and each high rung once, sharing
// highShare.
const (
	warmShare = 0.08
	lowShare  = 0.20
	highShare = 0.42
	peakShare = 0.30
)

// Stream phases: every phase draws its requests from its own stream. The
// traced stack replays the peak phase's stream, so its counts compare with
// the untraced stack's request for request; a stack never sees a stream
// twice, since replayed writes would collide.
const (
	phaseWarm    = 1
	phasePeak    = 2
	phaseSerial  = 3
	phaseDelayed = 4
	phaseRung0   = 10 // the high rungs; phaseLow0 + k is the k-th low visit
	phaseLow0    = 30
)

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's output.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	workloadName := flag.String("workload", "", `workload name (see workloads.go), or "all" for both runs of every workload`)
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 36, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	type run struct {
		w     *workloadDef
		trace int
	}
	var runs []run
	if *workloadName == "all" {
		for i := range workloads {
			runs = append(runs, run{&workloads[i], 0}, run{&workloads[i], 1})
		}
	} else if w, ok := findWorkload(*workloadName); ok {
		runs = append(runs, run{w, *trace})
	}
	if len(runs) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n", *workloadName, *seconds, *trace)
		os.Exit(2)
	}
	total := time.Duration(*seconds) * time.Second
	code := 0
	for _, r := range runs {
		fmt.Printf("== %s, trace %d\n", r.w.name, r.trace)
		var res *result
		var err error
		if r.trace == 0 {
			res, err = endToEnd(r.w, *seed, total)
		} else {
			res, err = perLayer(r.w, *seed, total)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		code = max(code, report(res))
	}
	os.Exit(code)
}

// report prints the metrics, then the result line, and returns the exit
// code.
func report(res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// stack is a running configuration plus what the checks need to remember
// about its starting state.
type stack struct {
	lab     *core.Lab
	dataDir string
	bids    []bidState // per replica, at boot; nil unless the mix bids
}

func (s *stack) close() {
	s.lab.Close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// config returns the workload's configuration for this seed, with a fresh
// data directory when the workload is durable.
func config(w *workloadDef, seed int64) (core.Config, error) {
	dir := ""
	if w.durable {
		d, err := os.MkdirTemp("", "perfbench-wal-")
		if err != nil {
			return core.Config{}, err
		}
		dir = d
	}
	cfg := w.config(dir)
	cfg.Seed = seed
	return cfg, nil
}

// start assembles the workload's configuration n times, keeping the last,
// and returns it with the median assembly time.
func start(w *workloadDef, seed int64, n int) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		cfg, err := config(w, seed)
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		lab, err := core.Start(cfg)
		if err != nil {
			os.RemoveAll(cfg.DBDataDir)
			return nil, 0, fmt.Errorf("core.Start: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		st = &stack{lab: lab, dataDir: cfg.DBDataDir}
	}
	if w.mix == "bidding" {
		for i := range st.lab.ReplicaAddrs() {
			b, err := readBidState(st.lab.ReplicaDB(i))
			if err != nil {
				st.close()
				return nil, 0, err
			}
			st.bids = append(st.bids, b)
		}
	}
	return st, median(times), nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driver runs the load phases of one run and keeps the tallies the checks
// need: every interaction's outcome, the mix actually sent, and the
// storebid interactions answered 200.
type driver struct {
	w       *workloadDef
	seed    int64
	p       *workload.Profile
	res     *result
	counts  []int64
	stored  int64
	storeID int
}

func newDriver(w *workloadDef, seed int64, p *workload.Profile) *driver {
	d := &driver{w: w, seed: seed, p: p, res: &result{}, counts: make([]int64, len(p.Interactions)), storeID: -1}
	for i, in := range p.Interactions {
		if in.Name == "storebid" {
			d.storeID = i
		}
	}
	return d
}

// tally records a phase's outcome; timed phases count towards attempted
// and failed, and any failure anywhere fails the run's checks.
func (d *driver) tally(r *phaseResult, timed bool) {
	for _, s := range r.samples {
		d.counts[s.inter]++
		if !s.failed && s.inter == d.storeID {
			d.stored++
		}
	}
	if n := r.failed(); n > 0 {
		d.res.problem("%d interactions failed; first: %s", n, r.firstFailure)
	}
	if timed {
		d.res.attempted += len(r.samples)
		d.res.failed += r.failed()
	}
}

func (d *driver) streams(phase, n int) ([]*stream, error) {
	var out []*stream
	for lane := 0; lane < n; lane++ {
		s, err := newStream(d.p, d.w.mix, d.seed, phase, lane)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// closed runs a closed-loop phase of n connections against addr.
func (d *driver) closed(addr string, phase, n int, dur time.Duration, timed bool) (*phaseResult, error) {
	ss, err := d.streams(phase, n)
	if err != nil {
		return nil, err
	}
	r := runClosedLoop(addr, d.p, ss, dur)
	d.tally(r, timed)
	return r, nil
}

// rung is one open-loop ladder step's outcome.
type rung struct {
	rate     float64
	window   time.Duration
	res      *phaseResult
	p50, p99 time.Duration
	pass     bool
	cpu      time.Duration
}

// rung offers rate (ipm) for window against addr, from the phase's stream.
func (d *driver) rung(addr string, phase int, rate float64, window time.Duration) (*rung, error) {
	ss, err := d.streams(phase, 1)
	if err != nil {
		return nil, err
	}
	sched := poissonSchedule(ss[0], d.seed*7919+int64(phase), rate, window)
	c0 := cpuTime()
	r := runOpenLoop(addr, d.p, sched, conns, window, d.w.sloP99)
	rg := &rung{rate: rate, window: window, res: r, cpu: cpuTime() - c0}
	d.tally(r, true)
	rg.p50, rg.p99 = quantiles(r.samples)
	rg.pass = r.shed == 0 && r.failed() == 0 && rg.p99 <= d.w.sloP99
	fmt.Printf("rung %7.0f ipm: sent %6d shed %5d done %7.0f ipm p50 %7.3f ms p99 %8.3f ms late_max %8.3f ms pass %v\n",
		rate, len(r.samples), r.shed, float64(r.completed())/window.Minutes(),
		ms(rg.p50), ms(rg.p99), ms(maxLate(r)), rg.pass)
	return rg, nil
}

// endToEnd runs the untraced load model and reports the end-to-end
// metrics.
func endToEnd(w *workloadDef, seed int64, total time.Duration) (*result, error) {
	st, setupS, err := start(w, seed, setups)
	if err != nil {
		return nil, err
	}
	defer st.close()
	addr, p := st.lab.WebAddr(), st.lab.Profile()
	d := newDriver(w, seed, p)
	hash, err := streamHash(p, w.mix, seed, []int{phaseWarm, phaseLow0, phaseRung0, phasePeak}, 2000)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d stream_hash %s\n", w.name, seed, hash)

	if _, err := d.closed(addr, phaseWarm, conns, scale(total, warmShare), false); err != nil {
		return nil, err
	}
	// The ladder visits its lowest rate between pairs of high rungs, so that
	// latency and CPU cost there are sampled across the whole phase rather
	// than in one stretch that a burst from outside the program, such as
	// another tenant's on a shared machine, could cover; the visits also let
	// any backlog from a high rung drain before the next.
	before := st.lab.Telemetry()
	var lows, highs []*rung
	lowWindow := scale(total, lowShare/float64(len(highSteps)/2+1))
	for i := 0; i <= len(highSteps); i++ {
		if i%2 == 0 {
			rg, err := d.rung(addr, phaseLow0+i/2, lowStep*w.nominal, lowWindow)
			if err != nil {
				return nil, err
			}
			lows = append(lows, rg)
		}
		if i == len(highSteps) {
			break
		}
		rg, err := d.rung(addr, phaseRung0+i, highSteps[i]*w.nominal, scale(total, highShare/float64(len(highSteps))))
		if err != nil {
			return nil, err
		}
		highs = append(highs, rg)
	}
	c0 := cpuTime()
	peak, err := d.closed(addr, phasePeak, conns, scale(total, peakShare), true)
	if err != nil {
		return nil, err
	}
	peakCPU := cpuTime() - c0
	peakIPM := windowedRate(peak)
	fmt.Printf("peak: %.0f ipm over %d connections; the process used %.2f cores\n", peakIPM, conns, peakCPU.Seconds()/peak.elapsed.Seconds())
	checkRun(st, d, st.lab.Telemetry().Delta(before))

	// slo_ipm is the throughput achieved at the n-th rung when n rungs met
	// the limit, the lowest rate counting as one rung that passes if most
	// visits did. Where pass and fail are ordered it is the highest passing
	// rate; where noise fails a rung below the threshold or passes one above
	// it, each such rung moves the figure by one step, not to the end of the
	// ladder.
	var achieved []float64 // per rung, interactions per minute
	passed, lowPasses, lowDone := 0, 0, 0
	var lowTime, lowCPU time.Duration
	var p50s, p99s []float64
	for _, rg := range lows {
		if rg.pass {
			lowPasses++
		}
		lowDone += rg.res.completed()
		lowTime += rg.window
		lowCPU += rg.cpu
		p50s, p99s = append(p50s, ms(rg.p50)), append(p99s, ms(rg.p99))
	}
	achieved = append(achieved, float64(lowDone)/lowTime.Minutes())
	if 2*lowPasses > len(lows) {
		passed++
	}
	for _, rg := range highs {
		achieved = append(achieved, float64(rg.res.completed())/rg.window.Minutes())
		if rg.pass {
			passed++
		}
	}
	slo := 0.0
	if passed > 0 {
		slo = achieved[passed-1]
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// The lowest rate's CPU cost is over all its visits, its latency
	// percentiles medians over the visits. Those are printed but not
	// reported: on the shared 2-core machine the benchmark was sized on,
	// their spread from run to run exceeded a quarter of their median, the
	// widest bound a regression gate may use.
	res := d.res
	res.add("peak_ipm", peakIPM, "ipm")
	res.add("slo_ipm", slo, "ipm")
	res.add("cpu_us_per_inter", float64(lowCPU.Microseconds())/float64(max(lowDone, 1)), "us")
	res.add("heap_mb", float64(mem.HeapInuse)/(1<<20), "MB")
	res.add("setup_s", setupS, "s")
	fmt.Printf("latency at %.0f ipm, median of %d visits of %d interactions or more: p50 %.3f ms, p99 %.3f ms\n",
		lows[0].rate, len(lows), minSamples(lows), median(p50s), median(p99s))
	fmt.Printf("error_pct %.4f (%d failed of %d attempted)\n", 100*float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	return res, nil
}

// checkRun applies the post-run checks: mix conformance, the bid invariant
// on every replica, replica identity and durable recovery. It prints the
// page-cache hit share of the timed phases, which the cached workload
// depends on.
func checkRun(st *stack, d *driver, delta *telemetry.Snapshot) {
	res := d.res
	if z, at := mixConformance(d.p, d.w.mix, d.counts); z > 5 {
		res.problem("interaction mix off its weights: %s is %.1f standard errors away", at, z)
	} else {
		fmt.Printf("mix conformance: worst deviation %.2f standard errors (%s)\n", z, at)
	}
	if web := delta.Tier("web"); web != nil {
		fmt.Printf("page-cache hits: %.2f%% of interactions in timed phases\n", 100*float64(web.PageCacheHits)/float64(max(web.Requests, 1)))
	}
	if st.bids == nil {
		return
	}
	var digests []string
	for i := range st.lab.ReplicaAddrs() {
		b, err := readBidState(st.lab.ReplicaDB(i))
		if err != nil {
			res.problem("replica %d: %v", i, err)
			continue
		}
		if err := checkBids(fmt.Sprintf("replica %d", i), st.bids[i], b, d.stored); err != nil {
			res.problem("%v", err)
		}
		dg, err := dbDigest(st.lab.ReplicaDB(i))
		if err != nil {
			res.problem("replica %d: %v", i, err)
		}
		digests = append(digests, dg)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			res.problem("replica %d differs from replica 0", i)
		}
	}
	fmt.Printf("bid invariant: %d storebid answered 200, checked on %d replicas\n", d.stored, len(digests))
	if st.dataDir == "" {
		return
	}
	if err := st.lab.CrashReplica(0); err != nil {
		res.problem("crash replica: %v", err)
		return
	}
	if _, err := st.lab.RestartReplicaFromDisk(0); err != nil {
		res.problem("recover replica: %v", err)
		return
	}
	b, err := readBidState(st.lab.ReplicaDB(0))
	if err != nil {
		res.problem("recovered replica: %v", err)
		return
	}
	if err := checkBids("after crash and recovery", st.bids[0], b, d.stored); err != nil {
		res.problem("%v", err)
		return
	}
	fmt.Println("durability: every acknowledged bid survived a crash and recovery")
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// quantiles returns the median and 99th percentile latency of samples; a
// failed interaction counts as slower than any other.
func quantiles(samples []sample) (time.Duration, time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.latency
		if s.failed {
			lat[i] = math.MaxInt64
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	return at(0.5), at(0.99)
}

func minSamples(rs []*rung) int {
	n := math.MaxInt
	for _, r := range rs {
		n = min(n, len(r.res.samples))
	}
	return n
}

// windowedRate returns the median, over the whole seconds of a closed-loop
// phase, of the interactions per minute completed from requests sent in
// that second.
func windowedRate(r *phaseResult) float64 {
	n := max(int(r.elapsed/time.Second), 1)
	counts := make([]float64, n)
	for _, s := range r.samples {
		if i := int(s.at / time.Second); i < n && !s.failed {
			counts[i] += 60
		}
	}
	return median(counts)
}

func maxLate(r *phaseResult) time.Duration {
	var m time.Duration
	for _, s := range r.samples {
		m = max(m, s.late)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
