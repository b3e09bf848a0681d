package main

import (
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must have
// above it: a p99 is only reported as such with at least 1000 samples.
const minBeyond = 10

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// rank returns the nearest-rank value at integer percentile p (1..100) of
// sorted values: the smallest value with at least p% of the samples at or
// below it.
func rank(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, rankIndex(len(sorted), p))]
}

// rankIndex is rank's index into n sorted samples, in integer arithmetic
// so that ceil(p·n/100) never rounds the wrong way.
func rankIndex(n, p int) int { return (p*n+99)/100 - 1 }

// tailIndex returns the index, into n sorted samples, of the highest
// percentile up to want that leaves at least minBeyond samples above it;
// ok is false when n is too small for any tail.
func tailIndex(n, want int) (i int, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	return min(rankIndex(n, want), n-minBeyond-1), true
}

// summary is a latency distribution reduced to the reported figures.
type summary struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50_ms"`
	Tail float64 `json:"tail_ms"`
	// TailPct is the percentile Tail reports: 99, or lower when fewer than
	// 1000 samples leave ten beyond p99; 0 (and Tail 0) with too few
	// samples for any tail.
	TailPct float64 `json:"tail_pct"`
}

func (s samples) summary() summary {
	c := s.sorted()
	out := summary{N: len(c), P50: rank(c, 50)}
	if i, ok := tailIndex(len(c), 99); ok {
		out.Tail = c[i]
		out.TailPct = 100 * float64(i+1) / float64(len(c))
	}
	return out
}

// median is the middle value, or the mean of the two middle values.
func (s samples) median() float64 {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	return (c[(len(c)-1)/2] + c[len(c)/2]) / 2
}

// partsSummary reduces a run that does the same work several times
// (passes, repetitions, stretches of a steady loop) to the median over
// the parts of each part's p50 and tail, so that a burst of host noise in
// one part does not set the run's figure.
type partsSummary struct {
	N     int       `json:"n"`
	P50   float64   `json:"p50_ms"`
	Tail  float64   `json:"tail_ms"`
	Parts []summary `json:"parts"`
}

func summarizeParts(parts []samples) partsSummary {
	var out partsSummary
	var p50s, tails samples
	for _, p := range parts {
		sm := p.summary()
		out.Parts = append(out.Parts, sm)
		out.N += sm.N
		p50s = append(p50s, sm.P50)
		tails = append(tails, sm.Tail)
	}
	out.P50, out.Tail = p50s.median(), tails.median()
	return out
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
