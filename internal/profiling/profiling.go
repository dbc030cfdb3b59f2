// Package profiling wires runtime/pprof into the CLIs: a CPU profile
// spanning the run and a heap profile written at shutdown, each gated on
// a flag-supplied output path. It exists so cmd/mtree, cmd/specchar and
// cmd/experiments expose identical -cpuprofile/-memprofile behaviour
// without duplicating the start/stop choreography.
package profiling

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// BundlePaths names the files of one -profile-bundle capture: CPU and
// heap profiles next to the span trace, manifest and metrics of the same
// run, so a performance investigation starts from one directory instead
// of five flags.
type BundlePaths struct {
	CPU      string // cpu.pprof
	Mem      string // mem.pprof
	Trace    string // trace.jsonl (span events)
	Manifest string // manifest.json (deterministic end-of-run record)
	Metrics  string // metrics.prom (Prometheus text format)
}

// Bundle creates the bundle directory (if needed) and returns the
// conventional file paths inside it. Callers fill any profiling or
// observability flag the user left unset from these paths.
func Bundle(dir string) (BundlePaths, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return BundlePaths{}, fmt.Errorf("profiling: creating bundle directory: %w", err)
	}
	return BundlePaths{
		CPU:      filepath.Join(dir, "cpu.pprof"),
		Mem:      filepath.Join(dir, "mem.pprof"),
		Trace:    filepath.Join(dir, "trace.jsonl"),
		Manifest: filepath.Join(dir, "manifest.json"),
		Metrics:  filepath.Join(dir, "metrics.prom"),
	}, nil
}

// Start begins profiling according to the two paths; either (or both) may
// be empty to disable that profile. It returns a stop function that ends
// CPU profiling and writes the heap profile — call it exactly once, on
// every exit path (defer is the natural shape). Start itself cleans up if
// the second profile fails to initialize after the first succeeded.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: starting CPU profile: %w", err)
		}
	}
	stop = func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = fmt.Errorf("profiling: closing CPU profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("profiling: creating heap profile: %w", err)
				}
				return firstErr
			}
			// Up-to-date allocation statistics, as the pprof docs advise
			// before a heap snapshot.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profiling: writing heap profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profiling: closing heap profile: %w", err)
			}
		}
		return firstErr
	}
	return stop, nil
}
