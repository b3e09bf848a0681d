package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory; the benchmark writes them out when the
// run ends. A nil *tracer records nothing, so untraced code paths pay one
// nil check per span.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

// span is one timed call into a layer. Parent is 0 for a root span; spans
// of one session lifecycle or one swarm share Group.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// open starts a span; finish it with close.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	group  int64
	name   string
	start  time.Time
}

func (t *tracer) open(name string, parent, group int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.newID(), parent: parent, group: group, name: name, start: time.Now()}
}

// close records the span and returns its duration.
func (o openSpan) close() time.Duration {
	if o.t == nil {
		return 0
	}
	end := time.Now()
	o.t.record(span{ID: o.id, Parent: o.parent, Group: o.group, Name: o.name,
		Start: o.start.Sub(o.t.epoch).Nanoseconds(), End: end.Sub(o.t.epoch).Nanoseconds()})
	return end.Sub(o.start)
}

// record stores a span timed elsewhere (server-side spans come from the
// handler wrapper with the client's span as parent).
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall instant to trace time.
func (t *tracer) at(x time.Time) int64 { return x.Sub(t.epoch).Nanoseconds() }

// newID reserves a span ID for a span recorded later with record.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// selfTime is the per-name summary of a trace: a span's self time is its
// duration minus the part of it that its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// SelfShare is SelfMS over the self time of every span in the trace.
	SelfShare float64 `json:"self_share"`
}

func selfTimes(spans []span) []selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var all float64
	for _, s := range spans {
		self := float64(s.End-s.Start) - covered(s, children[s.ID])
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += self / 1e6
		all += self / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		if all > 0 {
			st.SelfShare = st.SelfMS / all
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return float64(total)
}

// tracedBlock reports whether round r of a traced engine loop runs with
// spans: blocks of eight rounds alternate between traced and untraced, so
// trace.overhead_pct compares rounds of the same loop over the same stretch
// of the run.
func tracedBlock(r int) bool { return r/8%2 == 0 }

// overheadPct compares the traced rounds (or step requests) with the
// untraced ones.
func overheadPct(tracedMS, untracedMS float64) float64 {
	if untracedMS <= 0 {
		return 0
	}
	return (tracedMS/untracedMS - 1) * 100
}

// writeTrace writes the spans and their per-name self times next to the
// result file.
func writeTrace(cfg config, rep *report, tr *tracer) error {
	rep.SelfTime = selfTimes(tr.spans)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed)
	b, err := json.Marshal(struct {
		Workload    string     `json:"workload"`
		Seed        int64      `json:"seed"`
		Host        host       `json:"host"`
		OverheadPct float64    `json:"trace.overhead_pct"`
		SelfTime    []selfTime `json:"self_time"`
		Spans       []span     `json:"spans"`
	}{cfg.workload, cfg.seed, rep.Host, rep.Values["trace.overhead_pct"], rep.SelfTime, tr.spans})
	if err != nil {
		return err
	}
	rep.SpansFile = filepath.Join(cfg.outDir, name)
	return os.WriteFile(rep.SpansFile, b, 0o644)
}
