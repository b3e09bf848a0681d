package main

import (
	"fmt"
	"runtime"
	"time"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/grid"
	"gridgather/internal/scenario"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
)

// engine is the traced runs' handle on the round pipeline: an fsync.Engine
// built through scenario.Resolve with default options, as gridgather.New
// builds it, so that the benchmark can time the engine and the
// connectivity query as separate spans.
type engine struct {
	*fsync.Engine
	alg       fsync.Algorithm
	cfg       fsync.Config
	maxRounds int
}

func newEngine(cells []point) (*engine, error) {
	sw := swarm.NewSized(len(cells))
	for _, c := range cells {
		sw.Add(grid.Pt(c.X, c.Y))
	}
	sc, err := scenario.Resolve("", "", "", 0, core.WithConstants(0, 0), sw.Len())
	if err != nil {
		return nil, err
	}
	// The engine's own connectivity check stays off: the traced frontier
	// run calls World().Connected() itself, as a child span of the round.
	cfg := fsync.Config{NoMergeLimit: sc.Budget.NoMergeLimit, Scheduler: sc.Scheduler, Faults: sc.Faults}
	return &engine{Engine: fsync.New(sw, sc.Algorithm, cfg), alg: sc.Algorithm, cfg: cfg, maxRounds: sc.Budget.MaxRounds}, nil
}

// step runs one round under the session's round budget.
func (e *engine) step() error {
	if e.maxRounds > 0 && e.Round() >= e.maxRounds {
		return fmt.Errorf("round budget %d exhausted", e.maxRounds)
	}
	return e.Step()
}

// computeProbe rebuilds every robot's view on the current pre-round state
// and runs the algorithm's Compute on it, outside the engine, and returns
// the time per robot. The result is discarded: the probe measures the
// Compute stage's unit cost, which the engine's own round does not expose.
func (e *engine) computeProbe() (nsPerRobot float64) {
	cells := e.World().Cells()
	if len(cells) == 0 {
		return 0
	}
	vc := view.Config{Radius: e.alg.Radius(), Dense: e.World()}
	t0 := time.Now()
	for _, p := range cells {
		_ = e.alg.Compute(view.New(vc, p, e.Round()))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(cells))
}

// computeShare estimates the share of the engine's wall time spent in
// Compute: the probe's unit cost times the activations that ran Compute,
// spread evenly over the workers the stage shards across.
func computeShare(nsPerRobot float64, computed int, engineMS float64) float64 {
	return nsPerRobot * float64(computed) / float64(workers()) / 1e6 / engineMS
}

// workers is the engine's default worker count (Config.Workers 0).
func workers() int { return runtime.GOMAXPROCS(0) }
