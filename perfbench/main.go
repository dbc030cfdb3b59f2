// Command perfbench is the repository benchmark. It runs one named
// workload against the specchar pipeline through the packages' public
// Go API, checks every output it produces, and prints one JSON result
// line: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1.
//
//	go run . -workload study -seed 0 -seconds 20 -trace 0
//
// Workloads (see README.md for the layer → end-to-end map):
//
//	study   the paper's pipeline at specchar.DefaultConfig()
//	induce  M5' induction, cross-validation and importance on fixed data
//	serve   open-loop scoring traffic against an in-process serve.Server
//
// The simulator has no hardware reference results in the repository, so
// it is unvalidated: the only checks on the model are the paper's
// qualitative findings (tree roots, transfer verdicts). Generation
// preloads each phase's working set and runs 30 000 warm-up ops before
// sampling, so the modelled caches start filled.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (bench_test.go checks that they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mops", "Mop/s"},
	{"interactive_p50_ms", "ms"},
	{"bulk_p50_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"suites.generate_ms.cpu2006", "ms"},
	{"suites.generate_ms.omp2001", "ms"},
	{"suites.bench_p50_ms", "ms"},
	{"suites.bench_max_ms", "ms"},
	{"trace.next_ns", "ns"},
	{"uarch.run_ns_per_op", "ns"},
	{"uarch.self_ns_per_op", "ns"},
	{"uarch.preload_ms", "ms"},
	{"uarch.cache_access_ns", "ns"},
	{"uarch.tlb_access_ns", "ns"},
	{"pmu.sample_ns", "ns"},
	{"sim.ops", "count"},
	{"mtree.build_ms", "ms"},
	{"mtree.build.presort_ms", "ms"},
	{"mtree.build.grow_ms", "ms"},
	{"mtree.build.fit_ms", "ms"},
	{"mtree.build.prune_ms", "ms"},
	{"mtree.compile_ms", "ms"},
	{"mtree.cv_ms", "ms"},
	{"mtree.importance_ms", "ms"},
	{"mtree.leaves", "count"},
	{"mtree.predict_rows_ns", "ns"},
	{"mtree.predict_cols_ns", "ns"},
	{"transfer.assess_ms", "ms"},
	{"characterize.profile_ms", "ms"},
	{"serve.interactive_p99_ms", "ms"},
	{"serve.bulk_p99_ms", "ms"},
	{"serve.late_p50_ms", "ms"},
	{"serve.late_max_ms", "ms"},
	{"serve.samples_per_flush", "count"},
	{"serve.columnar_share", "ratio"},
	{"serve.json_us", "us"},
	{"serve.max_rps", "1/s"},
	{"registry.put_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state of one benchmark invocation: its arguments, the
// operation tally and the metrics collected so far.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workDir  string
	log      io.Writer

	attempted, failed int
	metrics           map[string]float64
	seen              digests // first digest of each artifact this run produced
}

// op records one operation whose output was checked. A non-nil err
// (a wrong output or a failed call) counts the operation as failed.
func (r *run) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s: %s\n", what, strings.ReplaceAll(err.Error(), "\n", "; "))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// logf writes a progress or report line to the log (standard error).
func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

var workloads = map[string]func(context.Context, *run) error{
	"study":  runStudy,
	"induce": runInduce,
	"serve":  runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: study, induce or serve")
		seed     = flag.Int64("seed", 0, "input seed; 0 reproduces the pinned digests")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
		workDir  = flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for temporary state and trace output")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := execute(context.Background(), *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, string(out))
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result. An error means the
// benchmark itself could not run (bad arguments, a missing metric); a
// wrong program output is not an error but a failed operation.
func execute(ctx context.Context, workload string, seed int64, seconds time.Duration, traced bool, workDir string, log io.Writer) (*result, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want study, induce or serve)", workload)
	}
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{workload: workload, seed: seed, seconds: seconds, traced: traced, workDir: workDir, log: log, metrics: map[string]float64{}}
	if err := fn(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		rss, err := maxRSSMiB()
		if err != nil {
			return nil, err
		}
		r.set("max_rss_mb", rss)
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: metrics not measured: %s", workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", workload)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// maxRSSMiB reads the process's peak resident set size.
func maxRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}
