// Command benchjson converts `go test -bench` output into a small JSON
// report, optionally annotated with a baseline for speedup bookkeeping.
//
// It reads benchmark result lines from stdin:
//
//	BenchmarkCoreRun/mem-bound-2   17056173   82.1 ns/op   0 B/op   0 allocs/op
//
// and writes a JSON document mapping each benchmark name to its measured
// numbers. A benchmark repeated with `go test -count N` is reported as
// the median ns/op, B/op and allocs/op over its N lines, with runs = N.
// With -baseline name=ns_per_op pairs (repeatable), the report also
// records the baseline and the resulting speedup factor, which is how
// scripts/bench.sh produces the checked-in BENCH_*.json evidence files.
//
// -gate name=max_ns (repeatable) turns the report into a check: after
// writing it, benchjson exits 1 if any gated benchmark's median ns/op
// exceeds its bound. scripts/bench.sh derives the bounds from checked-in
// medians with a noise multiplier.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"specchar/internal/stats"
)

// Result is one benchmark's measurement (medians over its runs), plus
// the optional baseline comparison.
type Result struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BaselineNs  float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Label      string            `json:"label,omitempty"`
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// baselines accumulates repeated -baseline name=ns flags.
type baselines map[string]float64

func (b baselines) String() string { return fmt.Sprint(map[string]float64(b)) }

func (b baselines) Set(v string) error {
	name, ns, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=ns_per_op, got %q", v)
	}
	f, err := strconv.ParseFloat(ns, 64)
	if err != nil {
		return fmt.Errorf("bad baseline %q: %w", v, err)
	}
	b[name] = f
	return nil
}

// parseLine decodes one benchmark result line into r's ns/op, B/op and
// allocs/op; ok is false for headers, PASS/ok trailers, and anything
// else that is not a measurement.
func parseLine(line string, rep *Report) (name string, r Result, ok bool) {
	switch {
	case strings.HasPrefix(line, "goos:"):
		rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		return "", r, false
	case strings.HasPrefix(line, "goarch:"):
		rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		return "", r, false
	case strings.HasPrefix(line, "cpu:"):
		rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		return "", r, false
	case !strings.HasPrefix(line, "Benchmark"):
		return "", r, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return "", r, false
	}
	_, err1 := strconv.Atoi(f[1])
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return "", r, false
	}
	// Strip the -N GOMAXPROCS suffix go test appends to parallel names.
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// After "ns/op" come optional value/unit pairs: 160 B/op 1 allocs/op.
	r = Result{NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return name, r, true
}

// readReport parses go test -bench output and folds each benchmark's
// repeated lines into one Result of medians.
func readReport(r io.Reader, label string, base baselines) (Report, error) {
	rep := Report{Label: label, Benchmarks: map[string]Result{}}
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if name, line, ok := parseLine(strings.TrimSpace(sc.Text()), &rep); ok {
			runs[name] = append(runs[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	for name, ss := range runs {
		ns := make([]float64, len(ss))
		bytes := make([]float64, len(ss))
		allocs := make([]float64, len(ss))
		for i, s := range ss {
			ns[i] = s.NsPerOp
			bytes[i] = float64(s.BytesPerOp)
			allocs[i] = float64(s.AllocsPerOp)
		}
		res := Result{
			Runs:        len(ss),
			NsPerOp:     round3(stats.Median(ns)),
			BytesPerOp:  int64(math.Round(stats.Median(bytes))),
			AllocsPerOp: int64(math.Round(stats.Median(allocs))),
		}
		if b, have := base[name]; have && res.NsPerOp > 0 {
			res.BaselineNs = b
			res.Speedup = round3(b / res.NsPerOp)
		}
		rep.Benchmarks[name] = res
	}
	return rep, nil
}

// round3 rounds to three decimals, so an even-count median (the mean of
// the middle two) prints without float noise like 18.630000000000003.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// checkGates returns one message per gated benchmark that is missing
// from the report or whose median ns/op exceeds its bound, in name order.
func checkGates(benchmarks map[string]Result, gates baselines) []string {
	names := make([]string, 0, len(gates))
	for name := range gates {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		r, have := benchmarks[name]
		switch {
		case !have:
			failures = append(failures, fmt.Sprintf("gate %s: benchmark not in input", name))
		case r.NsPerOp > gates[name]:
			failures = append(failures, fmt.Sprintf("gate %s: %.2f ns/op exceeds bound %.2f ns/op",
				name, r.NsPerOp, gates[name]))
		}
	}
	return failures
}

func main() {
	base := baselines{}
	gates := baselines{}
	label := flag.String("label", "", "free-form label recorded in the report")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Var(base, "baseline", "baseline as name=ns_per_op; repeatable")
	flag.Var(gates, "gate", "regression gate as name=max_ns_per_op; exit 1 if exceeded; repeatable")
	flag.Parse()

	rep, err := readReport(os.Stdin, *label, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Gates run after the report is written: a regression still leaves
	// the evidence file behind for diagnosis.
	failures := checkGates(rep.Benchmarks, gates)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchjson:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}
