package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ajp"
	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ejb"
	"repro/internal/httpd"
	"repro/internal/lb"
	"repro/internal/perfsim"
	"repro/internal/rmi"
	"repro/internal/scriptmod"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// Span layers, outermost first. Each is timed from outside, at the layer's
// public entry point.
const (
	lHTTPD   = iota // the client's round trip, timed by the generator
	lLB             // lb.PageCache.ServeHTTP
	lAJP            // ajp.Connector.ServeHTTP
	lServlet        // the container handler behind the AJP listener, or scriptmod.Module
	lRMI            // one exchange through the relay in front of the RMI listener
	lWire           // one exchange through the relay in front of a wire.Server
	numLayers
)

// span is one timed call at a layer boundary. seq is the interaction's
// sequence number in the serial phase, and 0 outside it.
type span struct {
	seq        int64
	layer      int
	start, end time.Duration // since the tracer's epoch
	bytes      int64
}

// tracer collects spans in memory; they are analysed when the run ends.
type tracer struct {
	epoch time.Time
	seq   atomic.Int64 // the interaction in flight in the serial phase
	mu    sync.Mutex
	spans []span
	// delay is added by the relays of a layer to each exchange, to check
	// that the trace charges it to that layer alone.
	delay [numLayers]atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed wraps an httpd.Handler boundary in a span.
type timed struct {
	t     *tracer
	layer int
	next  httpd.Handler
}

func (h timed) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	seq, start := h.t.seq.Load(), h.t.now()
	resp, err := h.next.ServeHTTP(req)
	h.t.record(span{seq: seq, layer: h.layer, start: start, end: h.t.now()})
	return resp, err
}

// relay is a TCP timing relay in front of a request/reply listener. An
// exchange opens with the first client bytes after a reply and ends with
// the last reply byte before the client speaks again, so pipelined requests
// count as one round trip.
type relay struct {
	t         *tracer
	layer     int
	target    string
	ln        net.Listener
	exchanges atomic.Int64
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     []net.Conn
}

func newRelay(t *tracer, layer int, target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{t: t, layer: layer, target: target, ln: ln}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, up)
		r.mu.Unlock()
		r.wg.Add(1)
		go r.pipe(c, up)
	}
}

// exchange is the open request/reply pair on one relayed connection.
type exchange struct {
	mu      sync.Mutex
	open    bool
	replied bool
	s       span
}

// pipe relays one connection until either side closes it.
func (r *relay) pipe(c, up net.Conn) {
	defer r.wg.Done()
	var ex exchange
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 32<<10)
		for {
			n, err := up.Read(buf)
			if n > 0 {
				now := r.t.now()
				ex.mu.Lock()
				if ex.open {
					ex.replied = true
					ex.s.end = now
					ex.s.bytes += int64(n)
				}
				ex.mu.Unlock()
				if _, werr := c.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		c.Close()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			now := r.t.now()
			ex.mu.Lock()
			if ex.open && ex.replied {
				r.t.record(ex.s)
				ex.open = false
			}
			fresh := !ex.open
			if fresh {
				ex.open, ex.replied = true, false
				ex.s = span{seq: r.t.seq.Load(), layer: r.layer, start: now}
			}
			ex.s.bytes += int64(n)
			ex.mu.Unlock()
			if fresh {
				r.exchanges.Add(1)
				// Yield rather than sleep: a timer adds its own slack,
				// and an idle process adds wake-up latency to every
				// other layer.
				for d := time.Duration(r.t.delay[r.layer].Load()); d > 0 && r.t.now()-now < d; {
					runtime.Gosched()
				}
			}
			if _, werr := up.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	up.Close()
	<-done
	ex.mu.Lock()
	if ex.open && ex.replied {
		r.t.record(ex.s)
	}
	ex.mu.Unlock()
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// dbPoolSize is core.Start's default database pool size, which it also
// uses for the web-to-app pools; the workloads leave both unset.
const dbPoolSize = 12

// tracedStack is the workload's configuration assembled from the same
// public constructors core.Start calls, with handler wrappers at every
// httpd.Handler boundary and timing relays in front of every RMI listener
// and wire.Server.
type tracedStack struct {
	t         *tracer
	web       *httpd.Server
	addr      string
	servers   []*wire.Server
	rmi       *relay
	pageCache *lb.PageCache
	db        *cluster.Client // the app tier's database client
	closers   []func()
}

func (s *tracedStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func startTraced(cfg core.Config, t *tracer) (ts *tracedStack, err error) {
	ts = &tracedStack{t: t}
	defer func() {
		if err != nil {
			ts.close()
		}
	}()
	replicas := max(cfg.DBReplicas, 1)
	var dsn []string
	for i := 0; i < replicas; i++ {
		db := sqldb.New()
		sess := db.NewSession()
		ex := sqldb.SessionExecer{S: sess}
		if cfg.Benchmark == perfsim.Bookstore {
			if err = bookstore.CreateSchema(ex); err == nil {
				err = bookstore.Populate(ex, cfg.BookScale, cfg.Seed)
			}
		} else {
			if err = auction.CreateSchema(ex); err == nil {
				err = auction.Populate(ex, cfg.AuctionScale, cfg.Seed)
			}
		}
		sess.Close()
		if err != nil {
			return nil, fmt.Errorf("populate replica %d: %w", i, err)
		}
		if cfg.DBDataDir != "" {
			if _, err = db.AttachWAL(sqldb.WALOptions{Dir: filepath.Join(cfg.DBDataDir, fmt.Sprintf("r%d", i))}); err != nil {
				return nil, fmt.Errorf("attach wal replica %d: %w", i, err)
			}
		}
		ts.closers = append(ts.closers, func() { db.CloseWAL() })
		srv := wire.NewServer(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ts.servers = append(ts.servers, srv)
		ts.closers = append(ts.closers, func() { srv.Close() })
		rl, err := newRelay(t, lWire, addr.String())
		if err != nil {
			return nil, err
		}
		ts.closers = append(ts.closers, rl.close)
		dsn = append(dsn, rl.addr())
	}
	dbAddr := strings.Join(dsn, ",")
	sync := cfg.Arch.EngineSync()
	newContainer := func() *servlet.Container {
		c := servlet.NewContainer(servlet.Config{DBAddr: dbAddr, DBPoolSize: dbPoolSize, DBQueryCache: cfg.DBQueryCache})
		if cfg.Benchmark == perfsim.Bookstore {
			bookstore.New(cfg.BookScale, bookstore.Config{Sync: sync}).Register(c)
		} else {
			auction.New(cfg.AuctionScale, auction.Config{Sync: sync}).Register(c)
		}
		return c
	}
	// overAJP serves a container behind an AJP listener and returns the
	// connector the web tier dispatches to, both boundaries wrapped.
	overAJP := func(c *servlet.Container) (httpd.Handler, error) {
		if err := c.Init(); err != nil {
			return nil, err
		}
		l := ajp.NewListener(timed{t, lServlet, c.Handler()})
		addr, err := l.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ts.closers = append(ts.closers, func() { l.Close() })
		conn := ajp.NewConnector(addr.String(), dbPoolSize)
		ts.closers = append(ts.closers, conn.Close)
		return timed{t, lAJP, conn}, nil
	}

	var app httpd.Handler
	switch cfg.Arch {
	case perfsim.ArchPHP:
		c := newContainer()
		m, err := scriptmod.Mount(c)
		if err != nil {
			return nil, err
		}
		ts.closers = append(ts.closers, func() { m.Close() })
		ts.db = c.Context().DB
		app = timed{t, lServlet, m}
	case perfsim.ArchEJB:
		ec, err := ejb.NewContainer(ejb.Config{DBAddr: dbAddr, DBPoolSize: dbPoolSize, DBQueryCache: cfg.DBQueryCache})
		if err != nil {
			return nil, err
		}
		ts.closers = append(ts.closers, func() { ec.Close() })
		ts.db = ec.DB()
		if cfg.Benchmark == perfsim.Bookstore {
			err = bookstore.RegisterEntities(ec)
			if err == nil {
				err = ec.RegisterFacade(bookstore.FacadeName, &bookstore.Facade{C: ec})
			}
		} else {
			err = auction.RegisterEntities(ec)
			if err == nil {
				err = ec.RegisterFacade(auction.FacadeName, &auction.Facade{C: ec})
			}
		}
		if err != nil {
			return nil, err
		}
		rmiAddr, err := ec.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if ts.rmi, err = newRelay(t, lRMI, rmiAddr.String()); err != nil {
			return nil, err
		}
		ts.closers = append(ts.closers, ts.rmi.close)
		rc := rmi.NewClient(ts.rmi.addr(), dbPoolSize)
		ts.closers = append(ts.closers, rc.Close)
		pc := servlet.NewContainer(servlet.Config{})
		if cfg.Benchmark == perfsim.Bookstore {
			bookstore.NewPresentationApp(rc, cfg.BookScale).Register(pc)
		} else {
			auction.NewPresentationApp(rc, cfg.AuctionScale).Register(pc)
		}
		ts.closers = append(ts.closers, func() { pc.Close() })
		if app, err = overAJP(pc); err != nil {
			return nil, err
		}
	default:
		c := newContainer()
		ts.closers = append(ts.closers, func() { c.Close() })
		ts.db = c.Context().DB
		if app, err = overAJP(c); err != nil {
			return nil, err
		}
	}
	if cfg.PageCache > 0 {
		ts.pageCache = lb.NewPageCache(app, lb.PageCacheConfig{MaxEntries: cfg.PageCache, TTL: cfg.PageCacheTTL, Epoch: ts.db.ContentEpoch})
		app = timed{t, lLB, ts.pageCache}
	}
	mux := httpd.NewMux()
	if cfg.Benchmark == perfsim.Bookstore {
		mux.Handle(bookstore.BasePath, app)
	} else {
		mux.Handle(auction.BasePath, app)
	}
	ts.web = httpd.NewServer(mux, nil)
	addr, err := ts.web.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts.closers = append(ts.closers, func() { ts.web.Close() })
	ts.addr = addr.String()
	return ts, nil
}

// counts is what the fidelity check compares between the traced and the
// untraced stack.
type counts struct {
	inters, stmts, broadcasts, rmiCalls, pageHits int64
}

func (s *tracedStack) counts() counts {
	var c counts
	for _, srv := range s.servers {
		c.stmts += srv.QueryCount()
	}
	if s.db != nil {
		c.broadcasts = s.db.ClientStats().Broadcasts
	}
	if s.rmi != nil {
		c.rmiCalls = s.rmi.exchanges.Load()
	}
	if s.pageCache != nil {
		c.pageHits = s.pageCache.Stats().Hits
	}
	c.inters = s.web.RequestCount()
	return c
}

// layerTimes is the serial phase's trace reduced to per-layer sums.
type layerTimes struct {
	inters int
	e2e    time.Duration
	self   [numLayers]time.Duration
	total  [numLayers]time.Duration
	calls  [numLayers]int
	bytes  [numLayers]int64
	// wireRTTs holds every wire exchange's duration.
	wireRTTs []float64
}

func (lt *layerTimes) perInter(d time.Duration) float64 {
	return float64(d.Microseconds()) / float64(max(lt.inters, 1))
}

// selfTimes reduces the spans of interactions lo..hi-1. A span's parent is
// the innermost span of an outer layer that contains it; its self time is
// its duration minus the union of its children's spans.
func selfTimes(spans []span, lo, hi int64) layerTimes {
	bySeq := map[int64][]span{}
	for _, s := range spans {
		if s.seq >= lo && s.seq < hi {
			bySeq[s.seq] = append(bySeq[s.seq], s)
		}
	}
	var lt layerTimes
	for _, ss := range bySeq {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].layer != ss[j].layer {
				return ss[i].layer < ss[j].layer
			}
			return ss[i].start < ss[j].start
		})
		if ss[0].layer != lHTTPD {
			continue // the interaction's own round trip was not recorded
		}
		lt.inters++
		lt.e2e += ss[0].end - ss[0].start
		children := make([][]span, len(ss))
		for i := 1; i < len(ss); i++ {
			parent := 0
			for j := 0; j < len(ss); j++ {
				if ss[j].layer < ss[i].layer && ss[j].start <= ss[i].start && ss[i].end <= ss[j].end &&
					ss[j].layer >= ss[parent].layer {
					parent = j
				}
			}
			children[parent] = append(children[parent], ss[i])
		}
		for i, s := range ss {
			d := s.end - s.start
			lt.self[s.layer] += d - union(children[i])
			lt.total[s.layer] += d
			lt.calls[s.layer]++
			lt.bytes[s.layer] += s.bytes
			if s.layer == lWire {
				lt.wireRTTs = append(lt.wireRTTs, float64(d))
			}
		}
	}
	return lt
}

// union returns the length of the union of the spans' intervals.
func union(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total, end time.Duration
	started := false
	var start time.Duration
	for _, s := range ss {
		if !started || s.start > end {
			if started {
				total += end - start
			}
			start, end, started = s.start, s.end, true
			continue
		}
		end = max(end, s.end)
	}
	if started {
		total += end - start
	}
	return total
}
