package main

import (
	"time"

	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/core"
	"repro/internal/perfsim"
)

// A workload is one paper configuration and one traffic mix. Every one runs
// the DefaultScale population, which is larger than the caches.
//
// Which layer metric should move an end-to-end metric, and on which
// workload; "predicted flat" names the workloads that bypass the layer, where
// a change to it must show no change. Later changes cite this table when they
// claim a gain. p50_ms and p99_ms are printed by every end-to-end run but not
// gated, and rubis-browsing-cached runs by name only; see the notes at those
// definitions.
//
//	layer    | metrics                                            | should move (workload where it does the work)               | predicted flat on
//	---------+----------------------------------------------------+-------------------------------------------------------------+------------------------
//	httpd    | httpd.self_us, httpd.cpu_us, httpd.resp_kb         | peak_ipm, p50_ms on rubis-browsing-cached                    | -
//	lb       | lb.self_us, lb.page_hit_pct,                       | peak_ipm, p50_ms on rubis-browsing-cached;                   | tpcw-browsing-ejb
//	         | lb.invalidations_per_kinter                        | cpu_us_per_inter on rubis-bidding                            |
//	ajp      | ajp.self_us, ajp.cpu_us                            | p50_ms on tpcw-browsing-ejb and rubis-bidding                | rubis-browsing-cached
//	servlet  | servlet.self_us, servlet.cpu_us                    | peak_ipm on every workload                                   | -
//	rmi      | rmi.calls_per_inter, rmi.rtt_us, rmi.cpu_us        | peak_ipm, p50_ms on tpcw-browsing-ejb                        | all rubis-*
//	ejb      | ejb.self_us, ejb.cpu_us, ejb.loads_per_inter,      | as rmi                                                       | all rubis-*
//	         | ejb.stores_per_inter                               |                                                              |
//	cluster  | cluster.cpu_us, cluster.query_hit_pct,             | p50_ms/p99_ms on rubis-bidding;                              | tpcw-browsing-ejb
//	         | cluster.broadcasts_per_inter, cluster.replica_lag_us | peak_ipm on rubis-browsing-cached                          |
//	pool     | pool.wait_us (all tiers summed)                    | p99_ms, slo_ipm wherever nonzero; 0 expected with 2 conns    | -
//	wire     | wire.rtt_us, wire.rtts_per_inter,                  | p50_ms on tpcw-browsing-ejb                                  | rubis-browsing-cached hits
//	         | wire.kb_per_inter, wire.cpu_us                     |                                                              |
//	sqldb    | sqldb.stmts_per_inter, sqldb.exec_cpu_us,          | peak_ipm, cpu_us_per_inter on tpcw-browsing-ejb and          | -
//	         | sqldb.plan_hit_pct, sqldb.lock_wait_us,            | rubis-bidding; p99_ms on rubis-bidding (lock wait, scans     |
//	         | sqldb.abort_pct, sqldb.snapshot_refreshes_per_kinter | over growing bids)                                         |
//	sqldb    | sqldb.wal_appends_per_fsync, sqldb.wal_fsyncs_per_inter, | p50_ms, p99_ms, slo_ipm on rubis-bidding-durable       | all in-memory workloads
//	WAL      | sqldb.wal_bytes_per_inter, sqldb.wal_cpu_us        |                                                              |
//	runtime, | runtime.alloc_kb_per_inter, runtime.gc_cpu_pct,    | cpu_us_per_inter everywhere; the last two check the          | -
//	gen,     | gen.late_ms_max, trace.overhead_pct                | generator and the tracer                                     |
//	trace    |                                                    |                                                              |
//
// perfsim and sim (the analytic model), chaos (off) and workload/datagen (the
// load side) are not measured.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists: the layers it makes
	// do the work, and what it bypasses.
	why string
	// durable workloads get a fresh empty data directory per assembly.
	durable bool
	// config builds the core.Start configuration; dataDir is "" unless the
	// workload is durable.
	config func(dataDir string) core.Config
	mix    string
	// nominal is about the highest open-loop rate the seed commit sustained
	// within the latency limit on the machine the benchmark was sized on (2
	// cores). It places the open-loop ladder and never changes with the
	// program, so every commit is offered the same rates (lowStep,
	// highSteps).
	nominal float64
	// sloP99 is the latency limit a ladder rung's p99 must meet.
	sloP99 time.Duration
}

var workloads = []workloadDef{
	{
		name: "rubis-bidding",
		why:  "auction bidding (15% writes) on servlets over AJP, 2 ROWA replicas, small caches: the write path of locks, commits, broadcast and invalidation churn",
		config: func(string) core.Config {
			return core.Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction,
				AuctionScale: auction.DefaultScale(), DBReplicas: 2, PageCache: 256, DBQueryCache: 512}
		},
		mix:     auction.BiddingMix,
		nominal: 90000,
		sloP99:  100 * time.Millisecond,
	},
	{
		name: "tpcw-browsing-ejb",
		why:  "bookstore browsing through web, AJP, servlets, RMI, EJB and database with caches off: the deepest middleware path, about 20 small statements per interaction",
		config: func(string) core.Config {
			return core.Config{Arch: perfsim.ArchEJB, Benchmark: perfsim.Bookstore,
				BookScale: bookstore.DefaultScale()}
		},
		mix:     bookstore.BrowsingMix,
		nominal: 140000,
		sloP99:  100 * time.Millisecond,
	},
	// rubis-browsing-cached is not in BENCHMARK.json: it keeps both cores
	// busy, so its peak_ipm follows the CPU the shared host delivers, and
	// across ten seeds its spread reached 27% of the median, past the widest
	// bound the gate allows. Run it by name to measure the cache hit path.
	{
		name: "rubis-browsing-cached",
		why:  "read-only auction browsing in-process with page and query caches on: the cache hit path; AJP, RMI, EJB and WAL are bypassed",
		config: func(string) core.Config {
			return core.Config{Arch: perfsim.ArchPHP, Benchmark: perfsim.Auction,
				AuctionScale: auction.DefaultScale(), PageCache: 256, DBQueryCache: 512}
		},
		mix:     auction.BrowsingMix,
		nominal: 280000,
		sloP99:  100 * time.Millisecond,
	},
	{
		name:    "rubis-bidding-durable",
		why:     "auction bidding on servlets, one durable replica (WAL group commit, ack after fsync), caches off: the only workload with fsync waits on commit",
		durable: true,
		config: func(dataDir string) core.Config {
			return core.Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction,
				AuctionScale: auction.DefaultScale(), DBDataDir: dataDir}
		},
		mix:     auction.BiddingMix,
		nominal: 72000,
		sloP99:  100 * time.Millisecond,
	},
}

// lowStep places the ladder's lowest rate, where latency and CPU cost are
// read, at about a third of the nominal peak.
const lowStep = 0.33

// highSteps place the rungs where slo_ipm is found, as shares of the
// nominal peak: 8% apart from well below it to past it, so that slo_ipm
// falls by one step, not to the lowest rate, when a rung near the peak
// fails, and a faster program has room to climb.
var highSteps = []float64{0.62, 0.70, 0.78, 0.86, 0.94, 1.02, 1.10, 1.18}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
