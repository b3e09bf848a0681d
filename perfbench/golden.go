package main

import "slices"

// golden holds exact end states recorded at the benchmark's size for the
// default seed (1) and a held-out seed (7) that later claims must also
// hold on. Other seeds are checked by the workloads' invariants alone.
//
//	gather:   rounds and final robots of blob, tree, solid, hollow
//	frontier: round, robots, merges and moves after the window
//	service:  rounds and robots summed over the first 64 lifecycles
var golden = map[string]map[int64][]int{
	"gather": {
		1: {1586, 1, 1564, 2, 1762, 1, 5423, 1},
		7: {1542, 4, 1542, 4, 1762, 1, 5423, 1},
	},
	"frontier": {
		1: {1044, 30311, 2795, 2795},
		7: {1044, 30368, 2741, 2741},
	},
	"service": {
		1: {8000, 8487},
		7: {8000, 8644},
	},
}

// checkGolden compares got with the record for the run's seed, at the
// benchmark's own size only.
func checkGolden(rep *report, workload string, cfg config, got []int) {
	rep.Detail["golden_got"] = got
	want, ok := golden[workload][cfg.seed]
	if cfg.size != 0 || !ok {
		rep.Detail["golden"] = "no record for this seed and size"
		return
	}
	rep.Detail["golden"] = "checked"
	if !slices.Equal(got, want) {
		rep.fail("%s: end state %v, recorded %v for seed %d", workload, got, want, cfg.seed)
	}
}
