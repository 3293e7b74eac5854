// Command perfbench is the repository benchmark. One invocation runs one
// workload at one seed and prints, as the last line of standard output, a
// JSON object with the correctness verdict and the metrics:
//
//	perfbench -convoyd <path> -work <dir> --workload stream-convoy --seed 3 --seconds 10 --trace 0
//
// It is normally started through run.sh, which builds this driver and
// convoyd from the checkout first. With --trace 0 the metrics are the
// end_to_end list of BENCHMARK.json; with --trace 1 they are its per_layer
// list. The metric names and units are read from BENCHMARK.json in the
// working directory, so that file is the single definition of both lists.
//
// Workloads (see README.md for what each is for and the prediction table):
//
//	batch-lsm      k/2-hop over a k2-LSMT store of Brinkhoff Mid-scale data
//	stream-convoy  open-loop K2BI ingest into a durable convoyd, convoy feeds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runDeadline bounds one invocation: a run must end within 180 s, so
// everything, clean-up included, finishes before.
const runDeadline = 165 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	convoyd  string
	work     string
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's outcome. Workloads set metrics by name; names
// the run does not produce are checked against BENCHMARK.json at the end.
type report struct {
	attempted int64
	failed    int64
	checks    []string // failed correctness checks, for the log
	values    map[string]float64
	lines     []string // human-readable summary, printed before the result
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one correctness check; a failed one counts as a failed
// operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "batch-lsm or stream-convoy")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.convoyd, "convoyd", "", "path of the convoyd binary under test")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for stores, logs and traces")
	flag.Parse()
	o.trace = *trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be > 0")
	}
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	// A run that overstays its deadline is abandoned: children are killed
	// and the process exits without a result line.
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		killChildren()
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded")
		os.Exit(2)
	})
	defer watchdog.Stop()
	defer killChildren()

	rep := newReport()
	w := workloadEnv{opts: o, dir: dir, rep: rep}
	switch o.workload {
	case "batch-lsm":
		err = runBatchLSM(ctx, &w)
	case "stream-convoy":
		err = runStreamConvoy(ctx, &w)
	default:
		err = fmt.Errorf("unknown --workload %q", o.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%s: %w", o.workload, ctx.Err())
	}
	return emit(spec, o, rep)
}

// workloadEnv is what every workload receives.
type workloadEnv struct {
	opts options
	dir  string // per-run scratch directory, removed at exit
	rep  *report
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, fmt.Errorf("read metric list (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("parse %s: %w", path, err)
	}
	return bf, nil
}

// emit prints the summary lines and the result line. An end-to-end metric
// the workload did not produce is a benchmark bug and fails the run; a
// per-layer metric of a layer the workload never calls reads 0.
func emit(bf benchmarkFile, o options, rep *report) error {
	list := bf.EndToEnd
	if o.trace {
		list = bf.PerLayer
	}
	out := resultLine{Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := rep.values[m.Name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, c := range rep.checks {
		rep.printf("FAILED CHECK: %s", c)
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out.Attempted, out.Failed = rep.attempted, rep.failed
	if o.trace {
		out.Metrics["bench.error_ratio"] = metricValue{Value: float64(rep.failed) / float64(rep.attempted), Unit: "ratio"}
	}
	out.Correct = rep.failed == 0
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
