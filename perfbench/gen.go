package main

import (
	"math/rand"

	"gridgather"
)

// The benchmark owns its inputs: every swarm below is built here from the
// run's seed and handed to the program as plain cells, so a change to the
// program's own workload catalogue cannot change what is measured.

type point = gridgather.Point

// rngFor derives an independent stream per input from the run seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

var axis4 = [4]point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}

func add(p, q point) point { return point{X: p.X + q.X, Y: p.Y + q.Y} }

// blob grows a compact random swarm of n cells (Eden growth): each step
// occupies a uniformly chosen free cell adjacent to the swarm.
func blob(n int, rng *rand.Rand) []point {
	occ := map[point]bool{{}: true}
	cells := []point{{}}
	var frontier []point
	inFrontier := map[point]bool{}
	push := func(p point) {
		for _, d := range axis4 {
			q := add(p, d)
			if !occ[q] && !inFrontier[q] {
				inFrontier[q] = true
				frontier = append(frontier, q)
			}
		}
	}
	push(point{})
	for len(cells) < n {
		i := rng.Intn(len(frontier))
		p := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		delete(inFrontier, p)
		occ[p] = true
		cells = append(cells, p)
		push(p)
	}
	return cells
}

// tree grows a random swarm of n cells by attaching each new cell next
// to a uniformly chosen occupied cell (blob picks a uniformly chosen free
// neighbour instead): twisty shapes with many tips and holes.
func tree(n int, rng *rand.Rand) []point {
	occ := map[point]bool{{}: true}
	cells := []point{{}}
	for len(cells) < n {
		p := add(cells[rng.Intn(len(cells))], axis4[rng.Intn(4)])
		if !occ[p] {
			occ[p] = true
			cells = append(cells, p)
		}
	}
	return cells
}

// notchedSolid is a w×w square with a seeded share of its border cells
// removed, sparing the corners and their neighbours: every remaining
// border cell still touches the interior or a spared neighbour, so the
// swarm stays connected.
func notchedSolid(w int, share float64, rng *rand.Rand) []point {
	cells := make([]point, 0, w*w)
	inner := func(v int) bool { return v >= 2 && v <= w-3 }
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			notchable := ((x == 0 || x == w-1) && inner(y)) || ((y == 0 || y == w-1) && inner(x))
			if notchable && rng.Float64() < share {
				continue
			}
			cells = append(cells, point{X: x, Y: y})
		}
	}
	return cells
}

// bumpyRing is the border of a w×w square with a seeded share of its
// non-corner cells given an outward bump: a one-cell ring stays connected
// only if nothing is removed, so the seed adds cells instead.
func bumpyRing(w int, share float64, rng *rand.Rand) []point {
	var cells []point
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			if x != 0 && y != 0 && x != w-1 && y != w-1 {
				continue
			}
			cells = append(cells, point{X: x, Y: y})
			corner := (x == 0 || x == w-1) && (y == 0 || y == w-1)
			if corner || rng.Float64() >= share {
				continue
			}
			switch {
			case x == 0:
				cells = append(cells, point{X: -1, Y: y})
			case x == w-1:
				cells = append(cells, point{X: w, Y: y})
			case y == 0:
				cells = append(cells, point{X: x, Y: -1})
			default:
				cells = append(cells, point{X: x, Y: w})
			}
		}
	}
	return cells
}
