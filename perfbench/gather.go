package main

import (
	"errors"
	"slices"
	"time"

	"gridgather"
)

// The gather workload is the Theorem-1 path that users sweep: a fixed,
// seeded set of swarms, each gathered to completion through gridgather.New
// and Step with default options (FSYNC, the paper's algorithm, all CPUs,
// connectivity check off). Quiescence skips only a few per cent of the
// activations here, so Compute and Resolve/Commit carry the round; it is
// the bypass case for quiescence, incremental connectivity and the
// checkpoint codec.

const gatherN = 2048

type swarmInput struct {
	name  string
	cells []point
}

// gatherSet builds the workload's swarms of about n robots each.
func gatherSet(seed int64, n int) []swarmInput {
	w := 1
	for w*w < n {
		w++
	}
	return []swarmInput{
		{"blob", blob(n, rngFor(seed, 1))},
		{"tree", tree(n, rngFor(seed, 2))},
		{"solid", notchedSolid(w, 0.1, rngFor(seed, 3))},
		{"hollow", bumpyRing(n/4+1, 0.02, rngFor(seed, 4))},
	}
}

// gatherOutcome is one swarm's end state.
type gatherOutcome struct {
	Rounds int `json:"rounds"`
	Final  int `json:"final"`
}

func runGather(cfg config, rep *report) error {
	n := gatherN
	if cfg.size > 0 {
		n = cfg.size
	}
	set := gatherSet(cfg.seed, n)
	deadline := cfg.deadline()

	var setup setupBlocks
	var passes []samples // step latencies, one part per pass
	var passTimes samples
	var first []gatherOutcome
	for pass := 0; ; pass++ {
		// Set-up: each pass starts by constructing the whole set, over
		// and over.
		err := setup.time(cfg.setupBlock(), 3, func() (time.Duration, error) {
			t0 := time.Now()
			for _, in := range set {
				if _, err := gridgather.New(in.cells); err != nil {
					return 0, err
				}
				rep.Attempt++
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		settle()

		t0 := time.Now()
		var steps samples
		got := gatherPass(set, rep, &steps)
		passTimes.add(time.Since(t0))
		passes = append(passes, steps)
		if first == nil {
			first = got
			checkGolden(rep, "gather", cfg, outcomeInts(got))
		} else if !slices.Equal(first, got) {
			rep.fail("gather: pass %d ended %v, pass 0 ended %v", pass, got, first)
		}
		settle()
		last := passTimes[len(passTimes)-1]
		if cfg.trace || time.Now().Add(time.Duration(last*1e6)).After(deadline) {
			break
		}
	}
	setup.record(rep)
	rep.latency("step_ms", passes...)
	rep.set("gather.gather_s", passTimes.median()/1e3)
	rounds := 0
	for _, o := range first {
		rounds += o.Rounds
	}
	rep.set("gather.rounds", float64(rounds))
	rep.Detail["swarms"] = first
	rep.Detail["passes"] = len(passTimes)
	if !cfg.trace {
		return nil
	}
	return traceGather(cfg, rep, set, first)
}

// gatherPass gathers every swarm of the set once through the public API,
// timing each Step, and checks each end state.
func gatherPass(set []swarmInput, rep *report, steps *samples) []gatherOutcome {
	out := make([]gatherOutcome, len(set))
	for i, in := range set {
		sim, err := gridgather.New(in.cells)
		rep.Attempt++
		if err != nil {
			rep.fail("gather %s: New: %v", in.name, err)
			continue
		}
		for {
			t0 := time.Now()
			err := sim.Step()
			d := time.Since(t0)
			if errors.Is(err, gridgather.ErrDone) {
				break
			}
			rep.Attempt++
			if err != nil {
				rep.fail("gather %s: round %d: %v", in.name, sim.Status().Round, err)
				break
			}
			steps.add(d)
		}
		res := sim.Result()
		checkGathered(rep, in.name, res)
		out[i] = gatherOutcome{Rounds: res.Rounds, Final: res.FinalRobots}
	}
	return out
}

// checkGathered is the gate on one finished swarm: gathered into one 2×2
// square, without error, with every lost robot accounted for by a merge.
func checkGathered(rep *report, name string, res gridgather.Result) {
	switch {
	case res.Err != nil:
		rep.fail("gather %s: %v", name, res.Err)
	case !res.Gathered:
		rep.fail("gather %s: not gathered after %d rounds", name, res.Rounds)
	case res.FinalRobots < 1 || res.FinalRobots > 4:
		rep.fail("gather %s: %d robots left", name, res.FinalRobots)
	case res.InitialRobots-res.FinalRobots != res.Merges:
		rep.fail("gather %s: %d robots lost but %d merges", name, res.InitialRobots-res.FinalRobots, res.Merges)
	}
}

func outcomeInts(o []gatherOutcome) []int {
	var v []int
	for _, x := range o {
		v = append(v, x.Rounds, x.Final)
	}
	return v
}

// traceGather gathers the set again through the engine with spans around
// each round and the engine call, and a Compute probe on sampled rounds.
// Every other block of rounds runs without spans, for the overhead figure.
func traceGather(cfg config, rep *report, set []swarmInput, want []gatherOutcome) error {
	tr := newTracer()
	var stepSpans, traced, untraced samples
	var probe samples // ns per robot
	var computed, skipped int
	for i, in := range set {
		eng, err := newEngine(in.cells)
		if err != nil {
			return err
		}
		sw := tr.open("swarm."+in.name, 0, int64(i+1))
		for !eng.Gathered() {
			if eng.Round()%64 == 0 {
				ps := tr.open("core.compute_probe", sw.id, sw.group)
				probe = append(probe, eng.computeProbe())
				ps.close()
			}
			t, times := tr, &traced
			if !tracedBlock(eng.Round()) {
				t, times = nil, &untraced
			}
			t0 := time.Now()
			rs := t.open("round", sw.id, sw.group)
			fs := t.open("fsync.step", rs.id, rs.group)
			err := eng.step()
			if t != nil {
				stepSpans.add(fs.close())
			}
			rs.close()
			times.add(time.Since(t0))
			rep.Attempt++
			if err != nil {
				rep.fail("gather %s (traced): round %d: %v", in.name, eng.Round(), err)
				break
			}
		}
		sw.close()
		q := eng.QuiesceStats()
		computed += q.Computed
		skipped += q.Skipped
		got := gatherOutcome{Rounds: eng.Round(), Final: eng.World().Len()}
		if got != want[i] {
			rep.fail("gather %s: traced engine ended %+v, public API %+v", in.name, got, want[i])
		}
	}
	rep.set("fsync.activations", float64(computed+skipped))
	rep.set("fsync.quiesce_computed", float64(computed))
	rep.set("fsync.quiesce_skipped", float64(skipped))
	if computed+skipped > 0 {
		rep.set("fsync.quiesce_skip_ratio", float64(skipped)/float64(computed+skipped))
	}
	rep.set("fsync.workers", float64(workers()))
	rep.latency("fsync.step_ms", stepSpans)
	nsPerRobot := probe.median()
	rep.set("core.compute_ns_per_robot", nsPerRobot)
	// The engine's time over every round: the step spans of the traced
	// rounds and the whole of the untraced ones.
	if total := stepSpans.sum() + untraced.sum(); total > 0 {
		rep.set("core.compute_est_share", computeShare(nsPerRobot, computed, total))
	}
	rep.Detail["core.compute_probe_rounds"] = len(probe)
	rep.set("trace.overhead_pct", overheadPct(traced.median(), untraced.median()))
	return writeTrace(cfg, rep, tr)
}
