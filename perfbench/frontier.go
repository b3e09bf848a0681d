package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"gridgather"
	"gridgather/internal/fsync"
	"gridgather/internal/world"
)

// The frontier workload is one large solid swarm with the connectivity
// check on. Only its border moves for a long time, so quiescence skips
// most activations, incremental connectivity answers every round, and the
// checkpoint is large: the mechanisms that do little in gather do most of
// the work here. The swarm (about 2^15 robots) keeps the working set near
// cache size; 2^17 robots made the run memory-bound and unsteady.

type frontierSize struct {
	side   int // the square's side before notching
	warm   int // warm-up rounds, longer than L = 22 so verdicts are cached
	window int // measured rounds per repetition
	reps   int // repetitions of construction, warm-up and window
	resume int // rounds stepped after a restore for the continuity check
}

// frontierNotch is the share of border cells the seed removes: enough to
// vary the input, few enough that every seed sets the same border moving.
const frontierNotch = 0.02

var frontierFull = frontierSize{side: 182, warm: 44, window: 1000, reps: 3, resume: 44}

func (c config) frontierSize() frontierSize {
	if c.size > 0 {
		return frontierSize{side: c.size, warm: 23, window: 30, reps: 3, resume: 10}
	}
	return frontierFull
}

func frontierOpts() []gridgather.Option {
	return []gridgather.Option{gridgather.WithConnectivityCheck(true)}
}

func runFrontier(cfg config, rep *report) error {
	sz := cfg.frontierSize()
	cells := notchedSolid(sz.side, frontierNotch, rngFor(cfg.seed, 5))
	deadline := cfg.deadline()

	// Each repetition builds the session and warms it up (a set-up block
	// of one: it takes 0.7 s), then steps the same window of rounds; the
	// set-up and step figures are medians over the repetitions. The last
	// session goes on to the checkpoints.
	var setup setupBlocks
	var windows []samples
	var sim *gridgather.Simulation
	var end []int
	for i := 0; i < sz.reps; i++ {
		sim = nil
		settle()
		err := setup.time(0, 1, func() (time.Duration, error) {
			t0 := time.Now()
			s, err := gridgather.New(cells, frontierOpts()...)
			if err != nil {
				return 0, err
			}
			if _, err := s.StepN(sz.warm); err != nil {
				return 0, fmt.Errorf("frontier warm-up: %w", err)
			}
			sim = s
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		rep.Attempt += 1 + sz.warm

		var steps samples
		for r := 0; r < sz.window; r++ {
			t0 := time.Now()
			err := sim.Step()
			d := time.Since(t0)
			rep.Attempt++
			if err != nil {
				rep.fail("frontier: round %d: %v", sim.Status().Round, err)
				break
			}
			steps.add(d)
		}
		windows = append(windows, steps)
		st, m := sim.Status(), sim.Metrics()
		if st.Done {
			rep.fail("frontier: session finished within the window (%s)", st.Reason)
		}
		got := []int{st.Round, st.Robots, m.Merges, m.Moves}
		if end == nil {
			end = got
			checkGolden(rep, "frontier", cfg, got)
			rep.Detail["quiescent_ratio"] = st.QuiescentRatio
		} else if !slices.Equal(got, end) {
			rep.fail("frontier: repetition %d ended %v, the first %v", i, got, end)
		}
	}
	setup.record(rep)
	rep.latency("step_ms", windows...)
	settle()

	// Checkpoint round trips until the time is up (at least 20; the
	// traced run spends its time on the traced phase instead).
	var snapT, restT samples
	var snap0 []byte
	var restored *gridgather.Simulation
	for i := 0; i < 20 || (!cfg.trace && time.Now().Before(deadline)); i++ {
		// The last restored session is garbage before the next round
		// trip; collecting it first keeps the run's peak memory from
		// depending on when the collector happened to run.
		restored = nil
		settle()
		t0 := time.Now()
		snap, err := sim.Snapshot()
		t1 := time.Now()
		if err != nil {
			return err
		}
		r, err := gridgather.Restore(snap, frontierOpts()...)
		t2 := time.Now()
		rep.Attempt += 2
		if err != nil {
			rep.fail("frontier: restore: %v", err)
			continue
		}
		snapT.add(t1.Sub(t0))
		restT.add(t2.Sub(t1))
		if snap0 == nil {
			snap0 = snap
		} else if !bytes.Equal(snap, snap0) {
			rep.fail("frontier: snapshot %d differs from the first", i)
		}
		restored = r
	}
	rep.set("frontier.snapshot_ms", snapT.median())
	rep.set("frontier.restore_ms", restT.median())
	rep.set("codec.snapshot_bytes", float64(len(snap0)))
	rep.Detail["checkpoints"] = len(snapT)
	if restored != nil {
		checkResume(rep, sim, restored, sz.resume)
	}
	if !cfg.trace {
		return nil
	}
	settle()
	return traceFrontier(cfg, rep, cells, sz)
}

// checkResume is the continuity gate: the restored session and the
// uninterrupted one step on in lockstep and must agree on every status and
// result field and, at the end, on every snapshot byte.
func checkResume(rep *report, orig, restored *gridgather.Simulation, k int) {
	for i := 0; i < k; i++ {
		e1, e2 := orig.Step(), restored.Step()
		rep.Attempt += 2
		if (e1 == nil) != (e2 == nil) {
			rep.fail("frontier: resume round %d: errors %v vs %v", i, e1, e2)
			return
		}
	}
	a, b := orig.Status(), restored.Status()
	a.QuiescentRatio, b.QuiescentRatio = 0, 0 // restores start with a cold verdict cache
	if a != b {
		rep.fail("frontier: resumed status %+v, uninterrupted %+v", b, a)
	}
	if ra, rb := orig.Result(), restored.Result(); ra != rb {
		rep.fail("frontier: resumed result %+v, uninterrupted %+v", rb, ra)
	}
	sa, err1 := orig.Snapshot()
	sb, err2 := restored.Snapshot()
	if err1 != nil || err2 != nil || !bytes.Equal(sa, sb) {
		rep.fail("frontier: resumed snapshot differs from the uninterrupted one")
	}
}

// traceFrontier steps twice the window through the engine with the
// connectivity query as its own span, every other block of rounds without
// spans for the overhead figure, then times the checkpoint codec's layers
// one by one.
func traceFrontier(cfg config, rep *report, cells []point, sz frontierSize) error {
	eng, err := newEngine(cells)
	if err != nil {
		return err
	}
	for eng.Round() < sz.warm {
		if err := eng.step(); err != nil {
			return err
		}
		eng.World().Connected()
	}
	tr := newTracer()
	q0, c0 := eng.QuiesceStats(), eng.World().ConnStats()
	var stepSpans, traced, untraced, conn, bfs, probe samples
	for r := 0; r < 2*sz.window; r++ {
		if r%64 == 0 {
			ps := tr.open("core.compute_probe", 0, 1)
			probe = append(probe, eng.computeProbe())
			ps.close()
		}
		t, times := tr, &traced
		if !tracedBlock(r) {
			t, times = nil, &untraced
		}
		t0 := time.Now()
		rs := t.open("round", 0, 1)
		fs := t.open("fsync.step", rs.id, 1)
		err := eng.step()
		d := fs.close()
		cs := t.open("world.connected", rs.id, 1)
		ok := eng.World().Connected()
		if t != nil {
			stepSpans.add(d)
			conn.add(cs.close())
		}
		rs.close()
		times.add(time.Since(t0))
		rep.Attempt += 2
		if err != nil || !ok {
			rep.fail("frontier (traced): round %d: err=%v connected=%v", eng.Round(), err, ok)
			break
		}
		if r%16 == 0 {
			bs := tr.open("world.connected_bfs", 0, 1)
			okBFS := eng.World().ConnectedBFS()
			bfs.add(bs.close())
			if okBFS != ok {
				rep.fail("frontier: incremental connectivity %v, BFS %v at round %d", ok, okBFS, eng.Round())
			}
		}
	}
	q, c := eng.QuiesceStats(), eng.World().ConnStats()
	computed, skipped := q.Computed-q0.Computed, q.Skipped-q0.Skipped
	rep.set("fsync.activations", float64(computed+skipped))
	rep.set("fsync.quiesce_computed", float64(computed))
	rep.set("fsync.quiesce_skipped", float64(skipped))
	if computed+skipped > 0 {
		rep.set("fsync.quiesce_skip_ratio", float64(skipped)/float64(computed+skipped))
	}
	rep.set("fsync.workers", float64(workers()))
	rep.latency("fsync.step_ms", stepSpans)
	us := make(samples, len(conn))
	for i, v := range conn {
		us[i] = v * 1e3
	}
	rep.latency("world.connected_us", us)
	rep.set("world.connected_bfs_us_p50", bfs.median()*1e3)
	rep.set("world.conn_relabels", float64(c.Relabels-c0.Relabels))
	rep.set("world.conn_fallbacks", float64(c.Fallbacks-c0.Fallbacks))
	nsPerRobot := probe.median()
	rep.set("core.compute_ns_per_robot", nsPerRobot)
	// The engine's time over every round: the step spans of the traced
	// rounds and the whole of the untraced ones.
	if total := stepSpans.sum() + untraced.sum(); total > 0 {
		rep.set("core.compute_est_share", computeShare(nsPerRobot, computed, total))
	}
	rep.set("trace.overhead_pct", overheadPct(traced.median(), untraced.median()))

	// The checkpoint codec, layer by layer, on the window's final state.
	var engAppend, worldAppend, decode, restore samples
	var eb, wb []byte
	for i := 0; i < 20; i++ {
		s := tr.open("fsync.append_state", 0, 2)
		eb = eng.AppendState(nil)
		engAppend.add(s.close())
		s = tr.open("world.append_state", 0, 2)
		wb = eng.World().AppendState(nil)
		worldAppend.add(s.close())
		s = tr.open("world.decode_dense", 0, 2)
		_, _, errD := world.DecodeDense(wb, false)
		decode.add(s.close())
		s = tr.open("fsync.new_restored", 0, 2)
		_, _, errR := fsync.NewRestored(eng.alg, eng.cfg, eb)
		restore.add(s.close())
		rep.Attempt += 4
		if errD != nil || errR != nil {
			rep.fail("frontier: decode: %v, restore: %v", errD, errR)
		}
	}
	rep.set("fsync.append_state_ms", engAppend.median())
	rep.set("world.append_state_ms", worldAppend.median())
	rep.set("world.decode_dense_ms", decode.median())
	rep.set("fsync.new_restored_ms", restore.median())
	return writeTrace(cfg, rep, tr)
}
