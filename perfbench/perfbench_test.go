package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gridgather"
)

func TestTailIndex(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{n: 10, ok: false},
		{n: 11, want: 0, ok: true},
		{n: 100, want: 89, ok: true},
		{n: 500, want: 489, ok: true},
		{n: 999, want: 988, ok: true},
		{n: 1000, want: 989, ok: true},
		{n: 2000, want: 1979, ok: true},
	} {
		got, ok := tailIndex(c.n, 99)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailIndex(%d, 99) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-got-1 < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, c.n-got-1)
		}
	}
}

func TestSummary(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	got := s.summary()
	if got.N != 1000 || got.P50 != 500 || got.Tail != 990 || got.TailPct != 99 {
		t.Errorf("summary of 1..1000 = %+v", got)
	}
	short := samples{3, 1, 2}
	if got := short.summary(); got.P50 != 2 || got.Tail != 0 || got.TailPct != 0 {
		t.Errorf("summary of three samples = %+v; want no tail", got)
	}
	small := make(samples, 200)
	for i := range small {
		small[i] = float64(i + 1)
	}
	if got := small.summary(); got.Tail != 190 || got.TailPct != 95 {
		t.Errorf("summary of 1..200 = %+v; want the 95th percentile, ten beyond", got)
	}
}

// TestSummarizeParts checks that one noisy part of a run does not set the
// run's figures.
func TestSummarizeParts(t *testing.T) {
	var calm, noisy samples
	for i := 1; i <= 1000; i++ {
		calm = append(calm, float64(i))
		noisy = append(noisy, float64(10*i))
	}
	got := summarizeParts([]samples{calm, noisy, calm})
	if got.N != 3000 || got.P50 != 500 || got.Tail != 990 {
		t.Errorf("parts summary %+v; want the calm parts' p50 500 and p99 990", got)
	}
}

// TestSetupBlocks checks that the set-up figure is the median over blocks
// of constructions, so a slow block does not set it, and that a block
// runs at least its minimum number of constructions.
func TestSetupBlocks(t *testing.T) {
	rep := &report{Values: map[string]float64{}, Detail: map[string]any{}}
	var b setupBlocks
	for k, ms := range []time.Duration{50, 2, 2, 3, 2} {
		calls := 0
		err := b.time(0, 4, func() (time.Duration, error) {
			calls++
			return ms * time.Millisecond, nil
		})
		if err != nil || calls != 4 {
			t.Fatalf("block %d: %d calls (%v); want 4", k, calls, err)
		}
	}
	b.record(rep)
	if got := rep.Values["setup_s"]; got != 0.002 {
		t.Errorf("setup_s %v; want the blocks' median 0.002", got)
	}
}

// TestParking checks that a loop keeps its last sessions parked and
// deletes the oldest in place of the newest.
func TestParking(t *testing.T) {
	var none *parking
	if got := none.swap("a"); got != "a" {
		t.Errorf("outside a loop a lifecycle deletes %q, want its own session", got)
	}
	p := &parking{keep: 2}
	var gone []string
	for _, id := range []string{"a", "b", "c", "d"} {
		gone = append(gone, p.swap(id))
	}
	if !slices.Equal(gone, []string{"", "", "a", "b"}) || !slices.Equal(p.ids, []string{"c", "d"}) {
		t.Errorf("deleted %q, parked %q", gone, p.ids)
	}
}

func TestSchedule(t *testing.T) {
	a := schedule(1, 50, 20*time.Second)
	if !slices.Equal(a, schedule(1, 50, 20*time.Second)) {
		t.Fatal("same seed, different schedule")
	}
	if slices.Equal(a, schedule(2, 50, 20*time.Second)) {
		t.Fatal("different seeds, same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 20*time.Second {
		t.Fatal("offsets not increasing within the window")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Errorf("%d arrivals in 20 s at 50/s", n)
	}
}

// TestOpenLoopDueTime checks the open loop's accounting: jobs start on
// schedule while earlier ones still run, the backlog is counted, a late
// generator shows as lateness, and a job queued behind a stall is billed
// from its due time.
func TestOpenLoopDueTime(t *testing.T) {
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	var mu sync.Mutex
	latency := make([]time.Duration, len(offsets))
	var server sync.Mutex // a server that handles one job at a time
	late, backlog := openLoop(time.Now(), offsets, func(i int, due time.Time) {
		server.Lock()
		time.Sleep(25 * time.Millisecond)
		server.Unlock()
		mu.Lock()
		latency[i] = time.Since(due)
		mu.Unlock()
	})
	if backlog < 3 {
		t.Errorf("backlog %d; the schedule outpaces the 25 ms jobs", backlog)
	}
	if late.median() > 5 {
		t.Errorf("median lateness %.1f ms on an idle generator", late.median())
	}
	// Job 3 is due at 30 ms but waits for jobs 0-2 (75 ms of service).
	if latency[3] < 60*time.Millisecond {
		t.Errorf("job 3 billed %v from its due time; want the queueing included", latency[3])
	}

	late, _ = openLoop(time.Now().Add(-50*time.Millisecond), offsets[:2], func(int, time.Time) {})
	for _, l := range late {
		if l < 40 {
			t.Errorf("lateness %.1f ms; the loop started 50 ms after its schedule", l)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "step", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "conn", Start: 90, End: 120},
	}
	got := map[string]float64{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s.SelfMS * 1e6
	}
	// round: 100 − (union of [10,50) and [90,100)) = 50.
	if got["round"] != 50 || got["step"] != 50 || got["conn"] != 30 {
		t.Errorf("self times %v", got)
	}
}

func TestInputsConnected(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, in := range gatherSet(seed, gatherN) {
			if !gridgather.Connected(in.cells) || len(in.cells) < gatherN*9/10 {
				t.Errorf("seed %d: %s has %d cells, connected=%v", seed, in.name, len(in.cells), gridgather.Connected(in.cells))
			}
		}
		if c := notchedSolid(frontierFull.side, frontierNotch, rngFor(seed, 5)); !gridgather.Connected(c) {
			t.Errorf("seed %d: frontier swarm not connected", seed)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the gate passes and every metric is printed.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"gather", "frontier", "service"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.5, trace: traced, outDir: t.TempDir(), size: 32}
			rep, err := measure(cfg, workloads[name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempt == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", name, traced, rep.Failed, rep.Attempt, rep.Problems)
			}
			out, err := finish(cfg, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var res struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(out, &res); err != nil || !res.Correct {
				t.Fatalf("%s trace=%v: result %s (%v)", name, traced, out, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || (!traced && v.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v, %v", name, traced, m.name, v.Value, ok)
				}
			}
			if name == "service" {
				lru := slices.Min(rep.Detail["closed_lru_spills"].([]int))
				if traced {
					lru = min(lru, int(rep.Values["pool.lru_spills"]))
				}
				if lru <= 0 {
					t.Errorf("service trace=%v: no LRU spill in a loop", traced)
				}
			}
			if traced {
				if _, err := os.Stat(rep.SpansFile); err != nil || len(rep.SelfTime) == 0 {
					t.Errorf("%s: no spans written (%v)", name, err)
				}
				if _, ok := rep.Values["trace.overhead_pct"]; !ok {
					t.Errorf("%s: no trace.overhead_pct", name)
				}
			}
		}
	}
}

// TestGateFails checks that a run whose end state contradicts the
// recorded one reports the failure.
func TestGateFails(t *testing.T) {
	rep := &report{Values: map[string]float64{}, Detail: map[string]any{}}
	golden["gather"][-5] = []int{1, 2}
	defer delete(golden["gather"], -5)
	checkGolden(rep, "gather", config{seed: -5}, []int{1, 3})
	if rep.Failed != 1 || !strings.Contains(rep.Problems[0], "recorded") {
		t.Errorf("mismatch against the record not reported: %+v", rep)
	}
}
