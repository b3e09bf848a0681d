// Command perfbench is the repository's benchmark: one run measures one
// workload for a fixed time through the program's public functions,
// checks that every output is correct, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	go run . --workload gather --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from an untraced phase and a
// traced phase of the same run, and the spans are written to the output
// directory. NOTES.md lists the workloads, the metrics, and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// size scales every workload down for the package's smoke tests; 0
	// is the benchmark's size.
	size int
}

// deadline is the end of the measured time from now.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// report is everything a workload measured. Values holds every metric it
// produced by name; the printed object takes the end-to-end or the
// per-layer names from it.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Attempt  int                `json:"attempted"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems"`
	Values   map[string]float64 `json:"values"`
	// Detail keeps what the metrics were computed from: sample counts,
	// tail percentiles, golden checks.
	Detail map[string]any `json:"detail"`
	// Trace output: per-name self time and the spans file.
	SelfTime  []selfTime `json:"self_time,omitempty"`
	SpansFile string     `json:"spans_file,omitempty"`
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

// fail records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// latency records under <name>_p50 and <name>_p99 the median over parts
// of the same work of each part's p50 and p99; a single distribution is
// one part.
func (r *report) latency(name string, parts ...samples) {
	sm := summarizeParts(parts)
	r.set(name+"_p50", sm.P50)
	r.set(name+"_p99", sm.Tail)
	r.Detail[name] = sm
}

// setupShare is the share of a run's time that gather and service spend
// constructing, over and over, for the set-up figure.
const setupShare = 0.05

// setupParts is how many blocks of set-up a run is planned for.
const setupParts = 5

// setupBlocks collects set-up times in blocks spread over a run: each part
// of the run's work (a gather pass, a stretch of the service loop) starts
// with a block of constructions.
type setupBlocks []samples

// time calls build, which returns the set-up time it measured, until both
// minReps calls and budget have passed, as one block.
func (b *setupBlocks) time(budget time.Duration, minReps int, build func() (time.Duration, error)) error {
	var block samples
	end := time.Now().Add(budget)
	for len(block) < minReps || time.Now().Before(end) {
		d, err := build()
		if err != nil {
			return err
		}
		block.add(d)
	}
	*b = append(*b, block)
	return nil
}

// record sets setup_s to the median over the blocks of each block's
// median. The host's speed drifts within seconds, so blocks spread over
// the run give a figure as steady as the step figures, where one block at
// the start would catch one second of the drift.
func (b setupBlocks) record(r *report) {
	var medians samples
	n := 0
	for _, block := range b {
		medians = append(medians, block.median())
		n += len(block)
	}
	r.set("setup_s", medians.median()/1e3)
	r.Detail["setup"] = map[string]any{"n": n, "block_medians_ms": medians}
}

// setupBlock is the time a run spends on one block of set-up: setupShare
// of the run over setupParts blocks.
func (c config) setupBlock() time.Duration {
	return time.Duration(setupShare * c.seconds * float64(time.Second) / setupParts)
}

var workloads = map[string]func(config, *report) error{
	"gather":   runGather,
	"frontier": runFrontier,
	"service":  runService,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: gather, frontier or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	body, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload gather|frontier|service, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	rep, err := measure(cfg, body)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	hb, _ := json.Marshal(rep.Host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "%s\n", out)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload between two calibration probes.
func measure(cfg config, body func(config, *report) error) (*report, error) {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:   fingerprint(),
		Values: map[string]float64{}, Detail: map[string]any{},
	}
	rep.set("host.calib_ms_start", calibrate())
	gc0 := readGC()
	if err := body(cfg, rep); err != nil {
		return nil, err
	}
	gc := readGC().since(gc0)
	rep.set("runtime.gc_cpu_s", gc.cpuS)
	rep.set("runtime.gc_cycles", gc.cycles)
	rep.set("runtime.alloc_mb", gc.allocMB)
	rep.set("mem_peak_mb", peakRSSMB())
	rep.set("host.calib_ms_end", calibrate())
	return rep, nil
}

// finish writes the result file and returns the final JSON line.
func finish(cfg config, rep *report) ([]byte, error) {
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		v, ok := rep.Values[m.name]
		if !cfg.trace && (!ok || v <= 0) {
			return nil, fmt.Errorf("workload %s measured no %s", cfg.workload, m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	if rep.Attempt < 1 {
		return nil, errors.New("no operation was attempted")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	sort.Strings(rep.Problems)
	traced := 0
	if cfg.trace {
		traced = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traced)
	rb, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), rb, 0o644); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempt, rep.Failed, metrics})
}

// settle collects garbage between phases so one phase's heap does not
// bill the next one's timings.
func settle() { runtime.GC() }
