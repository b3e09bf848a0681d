package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridgather"
	"gridgather/internal/serve"
	"gridgather/internal/serve/pool"
)

// The service workload drives an in-process gatherd server over loopback
// HTTP with session lifecycles: create (a 256-robot blob),
// four steps of 25 rounds, an explicit evict, a step that restores the
// session from the spill store, a snapshot download and a delete. One
// lifecycle in four runs the relaxed time model (ssync-rr:3 with the
// greedy algorithm and a crash-fault plan, connectivity check on). The
// engine work per request is small, so the serving layer, the session
// pool, the spill store and the snapshot codec at many small sizes carry
// the run. Each loop keeps its last MaxResident sessions parked, idle but
// alive, and the delete goes to the oldest parked session instead of the
// lifecycle's own, so more sessions live than may be resident and the
// pool's LRU spills fire in every loop.
//
// The end-to-end run is a closed loop: two clients (at most nproc), each
// running lifecycles back to back, so a slow phase of the host slows the
// requests without building a queue. The traced run adds an open loop at a
// fixed reference rate for the lifecycle latency, backlog and rate figures;
// there every latency is timed from the moment its request was due, so a
// stall also bills the requests that queued behind it (NOTES.md).

type serviceSize struct {
	robots      int
	rate        float64 // reference rate, lifecycles per second
	maxResident int
	stepRounds  int
	// ladder rates (lifecycles per second) and the lifecycle latency limit
	// they are judged by; the traced run measures the highest rate that
	// meets it.
	ladder  []float64
	limitMS float64
	rungS   float64
}

var serviceFull = serviceSize{
	robots: 256, rate: 50, maxResident: 2, stepRounds: 25,
	ladder: []float64{30, 40, 50, 60, 70, 80, 90, 100}, limitMS: 100, rungS: 1.5,
}

func (c config) serviceSize() serviceSize {
	if c.size > 0 {
		return serviceSize{robots: c.size, rate: 20, maxResident: 2, stepRounds: 5,
			ladder: []float64{10, 20}, limitMS: 1000, rungS: 0.3}
	}
	return serviceFull
}

// serviceStretches is how many stretches the closed loop of an untraced
// run is made of; the step figures are medians over them.
const serviceStretches = 5

// goldenLifecycles is how many lifecycles the golden record sums over.
const goldenLifecycles = 64

// conns is the client's connection limit: one process, at most nproc
// connections.
func conns() int { return min(2, max(1, workers())) }

// lifeSpec is one lifecycle's pre-built create request.
type lifeSpec struct {
	body    []byte
	robots  int
	relaxed bool
}

// newLifeSpec builds lifecycle i's create request from the seed alone, so
// lifecycle i is the same session whichever client runs it.
func newLifeSpec(seed int64, sz serviceSize, i int) lifeSpec {
	cells := blob(sz.robots, rngFor(seed, int64(100+i)))
	// Sessions run serially: a host of many small sessions gets its
	// concurrency from the sessions, and a parallel 256-robot step only
	// burns the second CPU, which cost the server its headroom.
	req := serve.CreateRequest{Label: fmt.Sprintf("life-%d", i), Workers: 1}
	for _, c := range cells {
		req.Cells = append(req.Cells, [2]int{c.X, c.Y})
	}
	relaxed := relaxedLife(i)
	if relaxed {
		req.Scheduler = "ssync-rr:3"
		req.SchedulerSeed = seed*1000 + int64(i)
		req.Algorithm = "greedy"
		req.Faults = "crash:p=0.002"
		req.ConnectivityCheck = true
	}
	b, _ := json.Marshal(req) // plain structs always marshal
	return lifeSpec{body: b, robots: len(cells), relaxed: relaxed}
}

// relaxedLife reports whether lifecycle i runs the relaxed time model.
func relaxedLife(i int) bool { return i%4 == 3 }

func lifeSpecs(seed int64, sz serviceSize, count int) []lifeSpec {
	out := make([]lifeSpec, count)
	for i := range out {
		out[i] = newLifeSpec(seed, sz, i)
	}
	return out
}

// schedule returns the arrival offsets of rate lifecycles per second over
// window: one per period, each shifted by a seeded uniform jitter of up to
// 40% of the period. It is an open loop, but without a Poisson process's
// bursts, whose seed-to-seed luck swamped the tail latency it is meant to
// measure.
func schedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rngFor(seed, 99)
	period := float64(time.Second) / rate
	var out []time.Duration
	for k := 0; ; k++ {
		off := time.Duration(period * (float64(k) + 0.5 + 0.8*(rng.Float64()-0.5)))
		if off >= window {
			return out
		}
		out = append(out, off)
	}
}

// server is one gatherd instance on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
	client *http.Client
	tr     *tracer
	// park, set while a loop runs, holds the loop's parked sessions.
	park *parking
}

// parking keeps the last keep sessions of a loop alive but idle after
// their lifecycle.
type parking struct {
	mu   sync.Mutex
	keep int
	ids  []string
}

// swap parks id and returns the session to delete in its place: the
// oldest parked one once more than keep are parked, else "". A nil
// parking parks nothing: the session itself is deleted.
func (p *parking) swap(id string) string {
	if p == nil {
		return id
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids = append(p.ids, id)
	if len(p.ids) <= p.keep {
		return ""
	}
	old := p.ids[0]
	p.ids = p.ids[1:]
	return old
}

// loop runs body with a fresh parking, then deletes the sessions still
// parked and counts the pool's LRU spills: its evictions less the loop's
// explicit evict requests. (An evict request on a session the LRU has
// already spilled is a no-op, so the count is a lower bound.) A loop of
// more lifecycles than MaxResident must spill: the parked sessions hold
// every resident slot when the next session is created.
func (s *server) loop(sz serviceSize, body func(st *loopStats)) *loopStats {
	st := &loopStats{}
	ev0 := s.srv.Pool().Stats().Evictions
	s.park = &parking{keep: sz.maxResident}
	body(st)
	for _, id := range s.park.ids {
		st.attempted++
		if err := s.del(id); err != nil {
			st.problems = append(st.problems, fmt.Sprintf("delete parked session: %v", err))
		}
	}
	s.park = nil
	st.lruSpills = int(s.srv.Pool().Stats().Evictions-ev0) - st.evicts
	if st.lifecycles > sz.maxResident && st.lruSpills <= 0 {
		st.problems = append(st.problems, fmt.Sprintf("%d lifecycles made no LRU spill", st.lifecycles))
	}
	return st
}

// del deletes a session outside any lifecycle.
func (s *server) del(id string) error {
	req, err := http.NewRequest("DELETE", s.base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE %s: HTTP %d", id, resp.StatusCode)
	}
	return nil
}

func startServer(dir string, maxResident int, tr *tracer) (*server, error) {
	srv, err := serve.New(serve.Config{SpillDir: dir, Pool: pool.Config{MaxResident: maxResident}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, base: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1), tr: tr}
	s.hs = &http.Server{Handler: serverSpans{srv, tr}}
	go func() { s.served <- s.hs.Serve(ln) }()
	n := conns()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return s, nil
}

// stop shuts the server down, waits for its serve loop and removes its
// spill directory.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx, s.hs)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// serverSpans is the traced run's ServeHTTP wrapper: it records the
// server-side span of each request as a child of the client's span, named
// after the operation the client announced.
type serverSpans struct {
	next http.Handler
	tr   *tracer
}

func (h serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	group, _ := strconv.ParseInt(r.Header.Get("X-Bench-Group"), 10, 64)
	h.tr.record(span{ID: h.tr.newID(), Parent: parent, Group: group,
		Name: "serve." + r.Header.Get("X-Bench-Op"), Start: h.tr.at(start), End: h.tr.at(end)})
}

// loopStats is what one closed- or open-loop phase measured.
type loopStats struct {
	lifecycle, step, restore, late samples
	attempted                      int
	evicts                         int // explicit evict requests answered
	lruSpills                      int
	backlogMax                     int
	lifecycles                     int // lifecycles that reported back
	goldenDone                     int // of the first goldenLifecycles, those that ended well
	goldenRounds, goldenRobots     int
	snaps                          [][]byte // a few downloaded snapshots for the store probe
	problems                       []string
}

// lifeResult is one lifecycle's outcome.
type lifeResult struct {
	index          int
	lifecycle      time.Duration
	steps          []time.Duration
	restore        time.Duration
	attempted      int
	evicts         int
	rounds, robots int
	snap           []byte
	problem        string
}

// run drives lifecycles at the given offsets through openLoop and
// collects their outcomes.
func (s *server) run(specs []lifeSpec, offsets []time.Duration, sz serviceSize) *loopStats {
	return s.loop(sz, func(st *loopStats) {
		var mu sync.Mutex
		st.late, st.backlogMax = openLoop(time.Now().Add(10*time.Millisecond), offsets, func(i int, due time.Time) {
			res := s.lifecycle(i, specs[i], due, sz)
			mu.Lock()
			defer mu.Unlock()
			st.add(res)
		})
	})
}

// closedLoop runs lifecycles back to back on each of conns() clients until
// the deadline. Each request is due when the answer before it arrives.
func (s *server) closedLoop(seed int64, sz serviceSize, deadline time.Time) (st *loopStats, lifecycles int) {
	var next atomic.Int64
	st = s.loop(sz, func(st *loopStats) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < conns(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					spec := newLifeSpec(seed, sz, i)
					res := s.lifecycle(i, spec, time.Now(), sz)
					mu.Lock()
					st.add(res)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	return st, int(next.Load())
}

// openLoop starts job(i, due) at start+offsets[i], each in its own
// goroutine, whether or not earlier jobs have finished, and waits for all
// of them. It returns how late each job started and the largest number of
// jobs in flight at a start.
func openLoop(start time.Time, offsets []time.Duration, job func(i int, due time.Time)) (late samples, backlogMax int) {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		backlogMax = max(backlogMax, int(inflight.Add(1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			job(i, due)
		}()
	}
	wg.Wait()
	return late, backlogMax
}

func (st *loopStats) add(res lifeResult) {
	st.lifecycles++
	st.attempted += res.attempted
	st.evicts += res.evicts
	if res.problem != "" {
		st.problems = append(st.problems, res.problem)
		return
	}
	st.lifecycle.add(res.lifecycle)
	for _, d := range res.steps {
		st.step.add(d)
	}
	st.restore.add(res.restore)
	if res.index < goldenLifecycles {
		st.goldenDone++
		st.goldenRounds += res.rounds
		st.goldenRobots += res.robots
	}
	if len(st.snaps) < 50 {
		st.snaps = append(st.snaps, res.snap)
	}
}

// lifecycle runs one session from create to the snapshot download, parks
// it (deleting the oldest parked session, or itself outside a loop) and
// checks every response against the state the session must be in. The
// lifecycle is
// timed from its due time; each step from the moment the answer before it
// arrived, since the client sends it at once and any wait is the server's.
func (s *server) lifecycle(i int, spec lifeSpec, due time.Time, sz serviceSize) (res lifeResult) {
	res.index = i
	group := int64(i + 1)
	ls := s.tr.open("lifecycle", 0, group)
	defer func() {
		res.lifecycle = time.Since(due)
		ls.close()
	}()
	// A lifecycle stops at its first failed request or check, which is
	// the one failure it reports.
	failf := func(format string, args ...any) lifeResult {
		res.problem = fmt.Sprintf("lifecycle %d: ", i) + fmt.Sprintf(format, args...)
		return res
	}
	call := func(method, path, op string, body []byte, want int) ([]byte, error) {
		res.attempted++
		cs := s.tr.open("client."+op, ls.id, group)
		defer cs.close()
		req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if s.tr != nil {
			req.Header.Set("X-Bench-Span", strconv.FormatInt(cs.id, 10))
			req.Header.Set("X-Bench-Group", strconv.FormatInt(group, 10))
			req.Header.Set("X-Bench-Op", op)
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
		}
		return out, nil
	}

	b, err := call("POST", "/v1/sessions", "create", spec.body, http.StatusCreated)
	if err != nil {
		return failf("%v", err)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil || info.Round != 0 || info.Robots != spec.robots {
		return failf("create answered %s (%v)", b, err)
	}
	path := "/v1/sessions/" + info.ID
	stepBody := []byte(fmt.Sprintf(`{"rounds":%d}`, sz.stepRounds))
	round := 0
	step := func(op string) (serve.StepResponse, error) {
		var sr serve.StepResponse
		t0 := time.Now()
		b, err := call("POST", path+"/step", op, stepBody, http.StatusOK)
		if err != nil {
			return sr, err
		}
		if err := json.Unmarshal(b, &sr); err != nil {
			return sr, err
		}
		res.steps = append(res.steps, time.Since(t0))
		round += sr.Executed
		if st := sr.Status; st.Round != round || !st.Resident || st.Error != "" ||
			(sr.Executed != sz.stepRounds && !st.Done) || !settled(st.Reason, spec.relaxed) {
			return sr, fmt.Errorf("step answered %s", b)
		}
		return sr, nil
	}
	for k := 0; k < 4; k++ {
		if _, err := step("step"); err != nil {
			return failf("%v", err)
		}
	}
	b, err = call("POST", path+"/evict", "evict", nil, http.StatusOK)
	if err != nil {
		return failf("%v", err)
	}
	res.evicts++
	if err := json.Unmarshal(b, &info); err != nil || info.Resident {
		return failf("evict answered %s", b)
	}
	t0 := time.Now()
	sr, err := step("restore_step")
	if err != nil {
		return failf("after restore: %v", err)
	}
	res.restore = time.Since(t0)
	snap, err := call("GET", path+"/snapshot", "snapshot", nil, http.StatusOK)
	if err != nil {
		return failf("%v", err)
	}
	if gone := s.park.swap(info.ID); gone != "" {
		if _, err := call("DELETE", "/v1/sessions/"+gone, "delete", nil, http.StatusNoContent); err != nil {
			return failf("%v", err)
		}
	}
	// The downloaded snapshot must resume exactly where the server left
	// the session.
	sim, err := gridgather.Restore(snap)
	if err != nil {
		return failf("snapshot does not restore: %v", err)
	}
	if st := sim.Status(); st.Round != sr.Status.Round || st.Robots != sr.Status.Robots {
		return failf("snapshot resumes at round %d with %d robots, server said %d and %d",
			st.Round, st.Robots, sr.Status.Round, sr.Status.Robots)
	}
	res.rounds, res.robots, res.snap = sr.Status.Round, sr.Status.Robots, snap
	return res
}

// settled reports whether a session's reason is one a healthy lifecycle
// may show: running or gathered, and for the crash-fault sessions also
// degraded (a crash may split the swarm).
func settled(reason string, relaxed bool) bool {
	switch reason {
	case gridgather.ReasonRunning, gridgather.ReasonGathered:
		return true
	case gridgather.ReasonDegraded:
		return relaxed
	}
	return false
}

// warmSpecs is how many different warm-up lifecycles set-up rotates
// through: one blob's warm-up cost varies by a third between seeds, and
// a set-up figure over several blobs does not.
const warmSpecs = 8

// setUp times one block of set-ups: a server up on its listener and one
// warm-up lifecycle, over and over, each time with the next of the
// warm-up specs (*warmed counts the set-ups so far). It returns the last
// server.
func setUp(cfg config, sz serviceSize, base string, blocks *setupBlocks, warmed *int) (*server, error) {
	var s *server
	err := blocks.time(cfg.setupBlock(), warmSpecs, func() (time.Duration, error) {
		if s != nil {
			if err := s.stop(); err != nil {
				return 0, err
			}
		}
		settle()
		dir, err := os.MkdirTemp(base, "server-")
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		s, err = startServer(dir, sz.maxResident, nil)
		if err != nil {
			return 0, err
		}
		// Lifecycles 4, 8, ... of another seed: plain ones, none relaxed.
		warm := newLifeSpec(cfg.seed+1<<32, sz, 4*(1+*warmed%warmSpecs))
		*warmed++
		if res := s.lifecycle(-1, warm, t0, sz); res.problem != "" {
			return 0, errors.New(res.problem)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		if s != nil {
			s.stop()
		}
		return nil, err
	}
	return s, nil
}

func runService(cfg config, rep *report) error {
	sz := cfg.serviceSize()
	base := filepath.Join(cfg.outDir, fmt.Sprintf("spill-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// The closed loop runs in serviceStretches stretches of equal time
	// (one in a traced run, which spends a fifth of its time on it and the
	// rest on the open loop, the traced repeat and the ladder). Each
	// stretch starts with a block of set-ups and runs on the last server
	// set up; the step figures are medians over the stretches.
	stretches, share := serviceStretches, 1.0
	if cfg.trace {
		stretches, share = 1, 0.2
	}
	stretch := time.Duration(share * cfg.seconds * float64(time.Second) / float64(stretches))
	var setup setupBlocks
	var warmed int
	var parts []samples
	var st *loopStats
	var lifecycles []int
	var lru []int
	for k := 0; k < stretches; k++ {
		s, err := setUp(cfg, sz, base, &setup, &warmed)
		if err != nil {
			return err
		}
		settle()
		var n int
		st, n = s.closedLoop(cfg.seed, sz, time.Now().Add(stretch))
		if err := s.stop(); err != nil {
			return err
		}
		// Every stretch replays lifecycles 0, 1, ... and is held to the
		// golden record.
		st.account(rep, n)
		st.golden(rep, cfg)
		parts = append(parts, st.step)
		lifecycles = append(lifecycles, n)
		lru = append(lru, st.lruSpills)
		settle()
	}
	setup.record(rep)
	rep.latency("step_ms", parts...)
	rep.Detail["closed_lifecycles"] = lifecycles
	rep.Detail["closed_lru_spills"] = lru
	if !cfg.trace {
		return nil
	}
	return traceService(cfg, rep, sz, base, st)
}

// golden checks the first lifecycles' end states against the record.
func (st *loopStats) golden(rep *report, cfg config) {
	if st.goldenDone == goldenLifecycles {
		checkGolden(rep, "service", cfg, []int{st.goldenRounds, st.goldenRobots})
	}
}

// account adds a loop's operations and failures to the report.
func (st *loopStats) account(rep *report, lifecycles int) {
	rep.Attempt += st.attempted
	for _, p := range st.problems {
		rep.fail("service %s", p)
	}
	if st.lifecycles != lifecycles {
		rep.fail("service: %d of %d lifecycles reported back", st.lifecycles, lifecycles)
	}
}

// traceService runs the open loop at the reference rate (untraced), then
// the closed loop again with spans on both sides of every request, probes
// the spill store on the downloaded snapshots, and walks the rate ladder.
func traceService(cfg config, rep *report, sz serviceSize, base string, untraced *loopStats) error {
	window := time.Duration(0.3 * cfg.seconds * float64(time.Second))
	offsets := schedule(cfg.seed, sz.rate, window)
	s, err := startServer(filepath.Join(base, "open"), sz.maxResident, nil)
	if err != nil {
		return err
	}
	open := s.run(lifeSpecs(cfg.seed, sz, len(offsets)), offsets, sz)
	open.account(rep, len(offsets))
	open.golden(rep, cfg)
	ps := s.srv.Pool().Stats()
	if err := s.stop(); err != nil {
		return err
	}
	rep.latency("service.lifecycle_ms", open.lifecycle)
	rep.set("service.restore_ms_p50", open.restore.median())
	rep.set("service.gen_late_ms_p99", open.late.summary().Tail)
	rep.set("service.backlog_max", float64(open.backlogMax))
	if open.attempted > 0 {
		rep.set("service.failed_ratio", float64(len(open.problems))/float64(open.attempted))
	}
	rep.set("pool.evictions", float64(ps.Evictions))
	rep.set("pool.lru_spills", float64(open.lruSpills))
	rep.set("pool.restores", float64(ps.Restores))
	rep.set("pool.max_resident", float64(ps.MaxResidentObserved))
	rep.set("pool.rejected", float64(ps.RejectedFull+ps.RejectedBusy+ps.RejectedClient))
	settle()

	tr := newTracer()
	s, err = startServer(filepath.Join(base, "traced"), sz.maxResident, tr)
	if err != nil {
		return err
	}
	st, n := s.closedLoop(cfg.seed, sz, time.Now().Add(time.Duration(0.2*cfg.seconds*float64(time.Second))))
	st.account(rep, n)
	if err := s.stop(); err != nil {
		return err
	}

	// Server-side spans per operation, and the transport share: the
	// client's span less the server's.
	spans := tr.spans // the server has stopped: no span is recorded any more
	byID := map[int64]span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	ops := map[string]*samples{}
	var transport, relaxed samples
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "serve.") {
			continue
		}
		d := time.Duration(sp.End - sp.Start)
		if ops[sp.Name] == nil {
			ops[sp.Name] = &samples{}
		}
		ops[sp.Name].add(d)
		if c, ok := byID[sp.Parent]; ok {
			transport.add(time.Duration((c.End - c.Start) - (sp.End - sp.Start)))
		}
		if (sp.Name == "serve.step" || sp.Name == "serve.restore_step") && relaxedLife(int(sp.Group-1)) {
			relaxed.add(d)
		}
	}
	for _, op := range []string{"create", "step", "evict", "restore_step", "snapshot", "delete"} {
		if o := ops["serve."+op]; o != nil {
			rep.set("serve."+op+"_ms_p50", o.median())
		}
	}
	rep.set("serve.transport_ms_p50", transport.median())
	rep.set("sched.relaxed_step_ms_p50", relaxed.median())
	rep.set("trace.overhead_pct", overheadPct(st.step.median(), untraced.step.median()))
	if err := writeTrace(cfg, rep, tr); err != nil {
		return err
	}
	settle()
	if err := probeStore(rep, filepath.Join(base, "store"), untraced.snaps); err != nil {
		return err
	}
	settle()
	return ladder(cfg, rep, sz, base)
}

// probeStore times the spill store's Put and Get on the workload's own
// snapshots.
func probeStore(rep *report, dir string, snaps [][]byte) error {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var put, get samples
	for i := 0; i < 200 && len(snaps) > 0; i++ {
		snap := snaps[i%len(snaps)]
		meta := serve.SpillMeta{ID: fmt.Sprintf("p%d", i%len(snaps))}
		t0 := time.Now()
		err := store.Put(meta, snap)
		t1 := time.Now()
		_, back, gerr := store.Get(meta.ID)
		t2 := time.Now()
		rep.Attempt += 2
		if err != nil || gerr != nil || !bytes.Equal(back, snap) {
			rep.fail("store probe: put %v, get %v, equal %v", err, gerr, bytes.Equal(back, snap))
			continue
		}
		put.add(t1.Sub(t0))
		get.add(t2.Sub(t1))
	}
	rep.set("store.put_ms_p50", put.median())
	rep.set("store.get_ms_p50", get.median())
	return nil
}

// ladder runs a short open loop at each ladder rate and reports the
// highest one whose lifecycle tail latency meets the limit. A growing
// backlog fails it too: lifecycles are timed from their due time to their
// end, so a queue that builds up shows in the tail.
func ladder(cfg config, rep *report, sz serviceSize, base string) error {
	best := 0.0
	var rungs []map[string]float64
	for k, rate := range sz.ladder {
		seed := cfg.seed*100 + int64(k)
		offsets := schedule(seed, rate, time.Duration(sz.rungS*float64(time.Second)))
		specs := lifeSpecs(seed, sz, len(offsets))
		s, err := startServer(filepath.Join(base, fmt.Sprintf("rung%d", k)), sz.maxResident, nil)
		if err != nil {
			return err
		}
		st := s.run(specs, offsets, sz)
		st.account(rep, len(offsets))
		if err := s.stop(); err != nil {
			return err
		}
		tail := st.lifecycle.summary().Tail
		ok := len(st.problems) == 0 && tail <= sz.limitMS
		rungs = append(rungs, map[string]float64{"rate": rate, "tail_ms": tail, "backlog_max": float64(st.backlogMax)})
		if !ok {
			break
		}
		best = rate
		settle()
	}
	rep.Detail["ladder"] = rungs
	rep.set("service.max_rate_per_s", best)
	return nil
}
