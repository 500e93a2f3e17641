package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/fleet"
	"hetmodel/internal/parallel"
	"hetmodel/internal/serve"
)

// served is a request-serving workload: member processes (and for the fleet
// a router process in front of them) on loopback sockets, driven closed loop
// by this process. Closed loop because the planner's callers — schedulers,
// autotuners, the router itself — wait for the answer before acting.
type served struct {
	clients int
	churn   bool
	fleet   bool

	base   *core.ModelSet
	grid   *cluster.Grid
	rq     *requests
	bodies [][]byte // JSON body per distinct query
	reqs   [][]byte // whole HTTP request per distinct query
	oracle *oracle

	members []*child
	router  *child
	target  string
	conns   []*conn

	next atomic.Int64 // position in the request sequence, kept across phases

	// Writer state (serve_churn): one writer, so no lock.
	writeConn *conn
	writeN    int
	state     refitState
	verState  map[int64]refitState
	lastVer   int64

	shadow *shadow
}

const (
	refitAuth     = "bench"
	writeInterval = 500 * time.Millisecond
	firstWrite    = 100 * time.Millisecond
	fleetMembers  = 3
)

func setupServed(name string, seed int64, clients int) (*served, error) {
	s := &served{
		clients:  clients,
		churn:    name == "serve_churn",
		fleet:    name == "fleet_scatter",
		verState: map[int64]refitState{1: 0},
		lastVer:  1,
	}
	var err error
	if s.base, err = buildModel(); err != nil {
		return nil, err
	}
	if s.grid, err = gridSpace(grid1M).Compile(); err != nil {
		return nil, err
	}
	if s.rq, err = generate(name, seed); err != nil {
		return nil, err
	}
	var grids [gridCount]*cluster.Grid
	grids[grid1M] = s.grid
	s.oracle = newOracle(s.base, grids, s.rq.queries)
	for _, q := range s.rq.queries {
		body, err := json.Marshal(q.wire())
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.reqs = append(s.reqs, request("/v1/query", nil, body))
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start spawns the processes, waits until each answers /v1/healthz, opens
// the clients' connections and sends the warm-up pass.
func (s *served) start() error {
	n := 1
	if s.fleet {
		n = fleetMembers
	}
	var args []string
	if s.churn {
		args = []string{"-refit-auth", refitAuth}
	}
	s.members = make([]*child, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range s.members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.members[i], errs[i] = spawn("member", args...)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	front := s.members[0]
	if s.fleet {
		urls := make([]string, n)
		for i, m := range s.members {
			urls[i] = m.url()
		}
		var err error
		if s.router, err = spawn("router", "-members", strings.Join(urls, ",")); err != nil {
			return err
		}
		front = s.router
	}
	s.target = front.addr()
	for _, c := range s.processes() {
		var hz struct {
			Status string `json:"status"`
		}
		if err := getJSON(c.addr(), "/v1/healthz", &hz); err != nil || hz.Status != "ok" {
			return fmt.Errorf("%s not healthy (%v); its output:\n%s", c.role, err, c.out.String())
		}
	}
	for i := 0; i < s.clients; i++ {
		c, err := dial(s.target)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	if s.churn {
		var err error
		if s.writeConn, err = dial(s.target); err != nil {
			return err
		}
	}
	for _, qid := range s.rq.warmUp() {
		if status, _, err := s.conns[0].do(s.reqs[qid]); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up query %+v: status %d, %v", s.rq.queries[qid], status, err)
		}
	}
	return nil
}

func (s *served) processes() []*child {
	all := append([]*child(nil), s.members...)
	if s.router != nil {
		all = append(all, s.router)
	}
	return all
}

func (s *served) hash() uint64 { return s.rq.hash }

func (s *served) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.writeConn != nil {
		s.writeConn.close()
	}
	var wg sync.WaitGroup
	for _, c := range s.processes() {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.stop()
		}(c)
	}
	wg.Wait()
}

// socketProbe is a request the server does no work for: its mux answers 404
// without reaching a handler, so the round trip is the socket's cost alone —
// kernel TCP, net/http's server, this client.
var socketProbe = get("/v1/unrouted")

// run measures for d. With a tracer, one request in tr.every is followed by
// its per-depth replays.
func (s *served) run(d time.Duration, tr *tracer) (*phase, error) {
	if tr != nil && s.shadow == nil {
		sh, err := newShadow(s)
		if err != nil {
			return nil, err
		}
		s.shadow = sh
	}
	p := &phase{ops: make([][]opRec, s.clients)}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p.ops[c] = s.client(c, start, deadline, tr)
		}(c)
	}
	if s.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.writes = s.writer(start, deadline)
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, nil
}

func (s *served) client(c int, start, deadline time.Time, tr *tracer) []opRec {
	conn := s.conns[c]
	recs := make([]opRec, 0, recsCap/s.clients)
	var ans answer
	var rp *replayer
	if tr != nil {
		rp = s.shadow.replayer()
		defer rp.close()
	}
	for {
		i := s.next.Add(1) - 1
		qid := s.rq.seq[i%int64(len(s.rq.seq))]
		t0 := time.Now()
		status, body, err := conn.do(s.reqs[qid])
		t1 := time.Now()
		rec := opRec{end: t1.Sub(start), lat: t1.Sub(t0), qid: qid}
		if err != nil || status != http.StatusOK || !scanAnswer(body, &ans) {
			rec.bad = true
		} else {
			rec.ver, rec.hash = int32(ans.version), hashRanked(ans.ranked)
		}
		recs = append(recs, rec)
		if tr != nil && i%int64(tr.every) == 0 && !rec.bad {
			s0 := time.Now()
			status, _, err := conn.do(socketProbe)
			s1 := time.Now()
			if err == nil && status == http.StatusNotFound {
				rp.replay(tr, qid, i+1, t0, t1, s0, s1)
			}
		}
		if !time.Now().Before(deadline) {
			return recs
		}
	}
}

// writer sends one /v1/refit every writeInterval, alternating a delta no
// 1M-grid candidate reads (the evaluator cache is re-keyed and stays warm)
// with one they all read (the cache is invalidated).
func (s *served) writer(start, deadline time.Time) []opRec {
	var recs []opRec
	due := start.Add(firstWrite)
	for due.Before(deadline) {
		time.Sleep(time.Until(due))
		due = due.Add(writeInterval)
		sample, next := refitDelta(s.base, s.state, s.writeN)
		s.writeN++
		req, err := post("/v1/refit", map[string]string{serve.RefitAuthHeader: refitAuth},
			serve.RefitRequest{Samples: []core.StoredSample{sample}})
		if err != nil {
			recs = append(recs, opRec{bad: true})
			continue
		}
		t0 := time.Now()
		status, body, err := s.writeConn.do(req)
		t1 := time.Now()
		rec := opRec{end: t1.Sub(start), lat: t1.Sub(t0)}
		var res serve.RefitResult
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Version != s.lastVer+1 {
			rec.bad = true
		} else {
			s.lastVer, s.state = res.Version, next
			s.verState[res.Version] = next
			// An unreachable delta must keep the cache's entries, a
			// reachable one must keep none: the two halves of surgical
			// invalidation.
			if unreachable := s.writeN%2 == 1; unreachable != (res.CacheKept > 0) {
				rec.bad = true
			}
			if s.shadow != nil {
				s.shadow.refit(sample)
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// verify checks every answer against the oracle and returns the number of
// failed operations: transport errors, non-2xx, unreadable or wrong answers,
// failed writes.
func (s *served) verify(p *phase) (int, error) {
	failed := 0
	for _, w := range p.writes {
		if w.bad {
			failed++
		}
	}
	for _, c := range p.ops {
		for _, r := range c {
			state, known := s.verState[int64(r.ver)]
			if r.bad || !known {
				failed++
				continue
			}
			want, err := s.oracle.expect(state, r.qid)
			if err != nil {
				return 0, err
			}
			if want != r.hash {
				failed++
			}
		}
	}
	return failed, nil
}

// counters snapshots what the per-layer metrics taken around a run need.
type counters struct {
	stats   serve.Stats              // summed over members
	fleet   fleet.Stats              // router, when there is one
	cpu     map[string]time.Duration // "client", "members", "router"
	rssMB   float64                  // largest member peak RSS
	hasProc bool
}

func selfCounters() counters {
	c := counters{cpu: make(map[string]time.Duration)}
	c.cpu["client"], c.hasProc = procCPU(os.Getpid())
	return c
}

func (s *served) counters() (counters, error) {
	c := selfCounters()
	for _, m := range s.members {
		var st serve.Stats
		if err := getJSON(m.addr(), "/v1/stats", &st); err != nil {
			return c, err
		}
		c.stats.Queries += st.Queries
		c.stats.Coalesced += st.Coalesced
		c.stats.CacheHits += st.CacheHits
		c.stats.CacheMisses += st.CacheMisses
		c.stats.Compiles += st.Compiles
		c.stats.Evictions += st.Evictions
		c.stats.Queued += st.Queued
		c.stats.RejectedQueue += st.RejectedQueue
		c.stats.RejectedDeadline += st.RejectedDeadline
		if cpu, ok := procCPU(m.pid()); ok {
			c.cpu["members"] += cpu
		}
		if rss, ok := procPeakRSS(m.pid()); ok && rss > c.rssMB {
			c.rssMB = rss
		}
	}
	if s.router != nil {
		if err := getJSON(s.router.addr(), "/v1/stats", &c.fleet); err != nil {
			return c, err
		}
		if cpu, ok := procCPU(s.router.pid()); ok {
			c.cpu["router"] = cpu
		}
	}
	return c, nil
}

// shadow holds the in-process twins the per-depth replays run on, configured
// like the children, fed the same refits and warmed by the same queries. For
// a member there is one planner per depth: a replay changes the evaluator
// cache, and a request that missed in the member must miss again at the next
// depth, not hit what the depth above just compiled. For the fleet it is a
// router over the real member processes.
type shadow struct {
	s        *served
	planners [2]*serve.Planner // handler depth, query depth
	handler  http.Handler
	router   *fleet.Router
}

func newShadow(s *served) (*shadow, error) {
	sh := &shadow{s: s}
	if s.fleet {
		urls := make([]string, len(s.members))
		for i, m := range s.members {
			urls[i] = m.url()
		}
		r, err := fleet.New(gridSpace(grid1M), routerOptions(urls))
		if err != nil {
			return nil, err
		}
		r.CheckHealth(context.Background())
		sh.router, sh.handler = r, r.Handler()
		return sh, nil
	}
	auth := ""
	if s.churn {
		auth = refitAuth
	}
	ms, err := s.oracle.model(s.state)
	if err != nil {
		return nil, err
	}
	for i := range sh.planners {
		p, err := serve.New(ms, gridSpace(grid1M), memberOptions(auth))
		if err != nil {
			return nil, err
		}
		for _, qid := range s.rq.warmUp() {
			if _, err := p.Query(context.Background(), planQuery(s.rq.queries[qid])); err != nil {
				return nil, err
			}
		}
		sh.planners[i] = p
	}
	sh.handler = sh.planners[0].Handler()
	return sh, nil
}

// refit mirrors a write onto the twins so their caches behave as the
// member's does.
func (sh *shadow) refit(sample core.StoredSample) {
	for _, p := range sh.planners {
		if p != nil {
			p.Refit(core.SampleDelta{Samples: []core.Sample{sample.Sample()}}) //nolint:errcheck // timing twins; answers are verified on the real path
		}
	}
}

func planQuery(q query) serve.Query {
	sq := serve.Query{N: q.N, TopK: q.TopK}
	if q.Cons {
		sq.Constraints = serve.Constraints{Classes: constrainedClasses, MaxTotalProcs: constrainedMaxProcs}
	}
	return sq
}

// replayer is one client's replay state: its own warm evaluators for the
// deepest depth and, for the fleet, its own connections to the members.
type replayer struct {
	sh      *shadow
	evs     map[int]*core.Evaluator
	members []*conn
	lists   [][]parallel.Candidate
	ans     answer
}

func (sh *shadow) replayer() *replayer {
	rp := &replayer{sh: sh, evs: make(map[int]*core.Evaluator)}
	if sh.router != nil {
		for _, m := range sh.s.members {
			c, err := dial(m.addr())
			if err != nil {
				continue // replays then fail and book nothing
			}
			rp.members = append(rp.members, c)
		}
		rp.lists = make([][]parallel.Candidate, len(rp.members))
	}
	return rp
}

func (rp *replayer) close() {
	for _, c := range rp.members {
		c.close()
	}
}

// timed is one replayed call.
type timed struct {
	from, to time.Time
	ok       bool
	hit      bool // member query depth: the planner had the evaluator cached
}

func (t timed) dur() time.Duration { return t.to.Sub(t.from) }

// handlerDepth runs the request through the twin's HTTP handler.
func (rp *replayer) handlerDepth(qid int32) timed {
	hreq, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(rp.sh.s.bodies[qid]))
	if err != nil {
		return timed{}
	}
	rec := httptest.NewRecorder()
	from := time.Now()
	rp.sh.handler.ServeHTTP(rec, hreq)
	return timed{from: from, to: time.Now(), ok: rec.Code == http.StatusOK}
}

// queryDepth runs the request through the twin's query call: Router.Query
// for the fleet, Planner.Query for a member.
func (rp *replayer) queryDepth(q query) timed {
	ctx := context.Background()
	if rp.sh.router != nil {
		from := time.Now()
		_, err := rp.sh.router.Query(ctx, q.wire())
		return timed{from: from, to: time.Now(), ok: err == nil}
	}
	from := time.Now()
	res, err := rp.sh.planners[1].Query(ctx, planQuery(q))
	to := time.Now()
	return timed{from: from, to: to, ok: err == nil, hit: err == nil && res.CacheHit}
}

// replay executes request qid once per depth below the round trip [t0, t1]
// the client just measured, and books the budget; [s0, s1] is the socket
// probe's round trip on the same connection. Which of the two top depths
// runs first alternates, so that whatever running second costs or saves
// cancels in the mean. A replay that fails books nothing: the request itself
// was verified on the real path.
func (rp *replayer) replay(tr *tracer, qid int32, req int64, t0, t1, s0, s1 time.Time) {
	q := rp.sh.s.rq.queries[qid]
	var handler, called timed
	if (req/int64(tr.every))%2 == 0 {
		handler, called = rp.handlerDepth(qid), rp.queryDepth(q)
	} else {
		called, handler = rp.queryDepth(q), rp.handlerDepth(qid)
	}
	if !handler.ok || !called.ok {
		return
	}
	layerName := "serve"
	if rp.sh.router != nil {
		layerName = "fleet"
	}
	var self [layerCount]time.Duration
	root := tr.add("client.request", t0, t1, 0, req)
	tr.add("client.socket_probe", s0, s1, root, req)
	hid := tr.add(layerName+".handler", handler.from, handler.to, root, req)
	qs := tr.add(layerName+".query", called.from, called.to, hid, req)
	// The socket probe and the handler replay are timed directly; if the
	// twins behave as the server did they add up to the real round trip, and
	// what they leave or overshoot is booked as other.
	direct := s1.Sub(s0) + handler.dur()
	self[layerSocket] = s1.Sub(s0)
	self[layerCodec] = handler.dur() - called.dur()
	self[layerOther] = t1.Sub(t0) - direct
	ok := false
	if rp.sh.router != nil {
		ok = rp.belowRouter(tr, q, req, qs, called.dur(), &self)
	} else {
		ok = rp.belowPlanner(tr, q, req, qs, called, &self)
	}
	if ok {
		tr.budget(t1.Sub(t0), direct, self)
	}
}

// belowPlanner replays what Planner.Query ran: the walk on a cached
// evaluator, or compile, table construction and walk on a miss.
func (rp *replayer) belowPlanner(tr *tracer, q query, req, qs int64, called timed, self *[layerCount]time.Duration) bool {
	s := rp.sh.s
	opts := q.searchOptions(s.grid.Size())
	opts.Workers = 0 // as the member searches
	_, ms := rp.sh.planners[1].Current()
	if called.hit {
		ev := rp.evs[q.N]
		if ev == nil {
			ev = ms.Compile(float64(q.N))
			ev.Search(s.grid, opts) //nolint:errcheck // builds the tables; timing twin
			if len(rp.evs) < 64 {
				rp.evs[q.N] = ev
			}
		}
		e := time.Now()
		ev.Search(s.grid, opts) //nolint:errcheck
		f := time.Now()
		tr.add("core.search", e, f, qs, req)
		self[layerSearch] = f.Sub(e)
		self[layerQuery] = called.dur() - f.Sub(e)
		return true
	}
	e := time.Now()
	ev := ms.Compile(float64(q.N))
	f := time.Now()
	ev.Search(s.grid, opts) //nolint:errcheck
	g := time.Now()
	ev.Search(s.grid, opts) //nolint:errcheck
	h := time.Now()
	tr.add("core.compile", e, f, qs, req)
	first := tr.add("core.search_first", f, g, qs, req)
	tr.add("core.search_repeat", g, h, first, req)
	self[layerCompile] = f.Sub(e)
	self[layerTables] = g.Sub(f) - h.Sub(g)
	self[layerSearch] = h.Sub(g)
	self[layerQuery] = called.dur() - g.Sub(e)
	return true
}

// belowRouter replays what Router.Query ran: the shard requests, posted to
// each member one by one, then the merge. The slowest member is on the
// query's critical path; the rest of the query is the router's fan-out.
func (rp *replayer) belowRouter(tr *tracer, q query, req, qs int64, called time.Duration, self *[layerCount]time.Duration) bool {
	if len(rp.members) != fleetMembers {
		return false
	}
	var slowest time.Duration
	size := rp.sh.s.grid.Size()
	for i, mc := range rp.members {
		w := q.wire()
		w.ShardLo, w.ShardHi = size*int64(i)/fleetMembers, size*int64(i+1)/fleetMembers
		sreq, err := post("/v1/query", nil, w)
		if err != nil {
			return false
		}
		e := time.Now()
		status, body, err := mc.do(sreq)
		f := time.Now()
		if err != nil || status != http.StatusOK || !scanAnswer(body, &rp.ans) {
			return false
		}
		rp.lists[i] = append(rp.lists[i][:0], rp.ans.ranked...)
		tr.add(fmt.Sprintf("fleet.member%d", i), e, f, qs, req)
		if f.Sub(e) > slowest {
			slowest = f.Sub(e)
		}
	}
	k := q.TopK
	if k < 1 {
		k = 1
	}
	g := time.Now()
	parallel.MergeTopK(k, rp.lists)
	h := time.Now()
	tr.add("parallel.merge", g, h, qs, req)
	self[layerMembers], self[layerMerge] = slowest, h.Sub(g)
	self[layerQuery] = called - slowest - h.Sub(g)
	return true
}
