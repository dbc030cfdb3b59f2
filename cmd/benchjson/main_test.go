package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		r      Result
		ok     bool
		header Report
	}{
		{
			line: "BenchmarkGeneratorNext-2   28519934   41.77 ns/op",
			name: "BenchmarkGeneratorNext", r: Result{NsPerOp: 41.77}, ok: true,
		},
		{
			line: "BenchmarkCoreRun/mem-bound-2   14630508   81.97 ns/op",
			name: "BenchmarkCoreRun/mem-bound", r: Result{NsPerOp: 81.97}, ok: true,
		},
		{
			// A name whose last dash is not a GOMAXPROCS suffix keeps it.
			line: "BenchmarkCoreRun/tlb-bound   14630508   82.84 ns/op",
			name: "BenchmarkCoreRun/tlb-bound", r: Result{NsPerOp: 82.84}, ok: true,
		},
		{
			line: "BenchmarkMultiplexerSample-2   1316844   911.1 ns/op   160 B/op   1 allocs/op",
			name: "BenchmarkMultiplexerSample", r: Result{NsPerOp: 911.1, BytesPerOp: 160, AllocsPerOp: 1}, ok: true,
		},
		{
			// A custom metric (b.ReportMetric) sits between ns/op and B/op.
			line: "BenchmarkCacheAccess/L1D-2   32921960   32.66 ns/op   0.8763 hits/op   8 B/op   2 allocs/op",
			name: "BenchmarkCacheAccess/L1D", r: Result{NsPerOp: 32.66, BytesPerOp: 8, AllocsPerOp: 2}, ok: true,
		},
		{line: "goos: linux", header: Report{GoOS: "linux"}},
		{line: "goarch: amd64", header: Report{GoArch: "amd64"}},
		{line: "cpu: Intel(R) Xeon(R) Processor @ 2.10GHz", header: Report{CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz"}},
		{line: "pkg: specchar/internal/uarch"},
		{line: "PASS"},
		{line: "ok  \tspecchar/internal/uarch\t12.345s"},
		{line: "BenchmarkServe-2   100   2.5 MB/s"},
		{line: "BenchmarkBroken-2   many   12 ns/op"},
	}
	for _, c := range cases {
		var rep Report
		name, r, ok := parseLine(c.line, &rep)
		if name != c.name || r != c.r || ok != c.ok {
			t.Errorf("parseLine(%q) = %q, %+v, %v; want %q, %+v, %v", c.line, name, r, ok, c.name, c.r, c.ok)
		}
		if !reflect.DeepEqual(rep, c.header) {
			t.Errorf("parseLine(%q) set header %+v; want %+v", c.line, rep, c.header)
		}
	}
}

func TestReadReportMedianOfRepeats(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkFit-2   48000   26000 ns/op   320 B/op   9 allocs/op",
		"BenchmarkFit-2   48000   24000 ns/op   300 B/op   9 allocs/op",
		"BenchmarkFit-2   48000   25000 ns/op   304 B/op   10 allocs/op",
		"PASS",
	}, "\n")
	rep, err := readReport(strings.NewReader(in), "lbl", baselines{"BenchmarkFit": 50000})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Runs: 3, NsPerOp: 25000, BytesPerOp: 304, AllocsPerOp: 9, BaselineNs: 50000, Speedup: 2}
	if got := rep.Benchmarks["BenchmarkFit"]; got != want {
		t.Errorf("BenchmarkFit = %+v; want %+v", got, want)
	}
	if len(rep.Benchmarks) != 1 || rep.Label != "lbl" || rep.GoOS != "linux" {
		t.Errorf("report = %+v", rep)
	}
}

func TestCheckGates(t *testing.T) {
	got := checkGates(map[string]Result{
		"BenchmarkCoreRun/compute":   {Runs: 6, NsPerOp: 70},
		"BenchmarkCoreRun/mem-bound": {Runs: 6, NsPerOp: 130},
	}, baselines{
		"BenchmarkCoreRun/compute":   106.16,
		"BenchmarkCoreRun/mem-bound": 122.96,
		"BenchmarkCoreRun/stream":    103.41,
	})
	want := []string{
		"gate BenchmarkCoreRun/mem-bound: 130.00 ns/op exceeds bound 122.96 ns/op",
		"gate BenchmarkCoreRun/stream: benchmark not in input",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkGates = %q; want %q", got, want)
	}
}
