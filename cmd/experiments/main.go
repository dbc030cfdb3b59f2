// Command experiments regenerates every table and figure of the paper in
// one run.
//
// Usage:
//
//	experiments [-exp all|table1,figure1,...] [-quick] [-o out.txt]
//
// With no flags it runs the full battery at paper scale (tens of seconds)
// and prints the report to stdout; the set-up time and the paths of any
// -dotdir figures go to stderr, so the report is reproducible byte for
// byte (results/full_run.txt is one such run).
//
// SIGINT/SIGTERM cancel the run cooperatively: the in-flight stage stops
// at its next chunk boundary, every experiment that already completed is
// flushed (the -o file is committed atomically with the finished
// sections), and the process exits with code 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"specchar"
	"specchar/internal/obs"
	"specchar/internal/profiling"
	"specchar/internal/robust"
)

// exitInterrupted is the exit code for a run stopped by SIGINT/SIGTERM,
// following the shell convention of 128 + signal number (SIGINT = 2).
const exitInterrupted = 130

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (ids: "+strings.Join(specchar.Experiments(), ", ")+")")
		quickFlag  = flag.Bool("quick", false, "reduced-scale run (fast, noisier)")
		outFlag    = flag.String("o", "", "write the report to this file instead of stdout")
		seedFlag   = flag.Uint64("seed", 0, "override the data-generation seed (0 keeps the default)")
		dotDir     = flag.String("dotdir", "", "also write figure1.dot / figure2.dot Graphviz files to this directory")
		logJSON    = flag.Bool("log-json", false, "stream the span trace as JSON Lines to stderr")
		obsOut     = flag.String("obs-out", "", "write the deterministic end-of-run manifest (JSON) to this file")
		metricsOut = flag.String("metrics-out", "", "write metrics in Prometheus text format to this file at exit")
		bundleFlag = flag.String("profile-bundle", "", "capture CPU/heap profiles, span trace, manifest and metrics together under this directory")
	)
	flag.Parse()

	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	if *seedFlag != 0 {
		cfg.Gen.Seed = *seedFlag
	}

	ids := specchar.Experiments()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}

	tracePath, cpuPath, memPath := "", "", ""
	if *bundleFlag != "" {
		bp, err := profiling.Bundle(*bundleFlag)
		if err != nil {
			log.Fatal(err)
		}
		cpuPath, memPath, tracePath = bp.CPU, bp.Mem, bp.Trace
		if *obsOut == "" {
			*obsOut = bp.Manifest
		}
		if *metricsOut == "" {
			*metricsOut = bp.Metrics
		}
	}
	stopProfiling, err := profiling.Start(cpuPath, memPath)
	if err != nil {
		log.Fatal(err)
	}
	obsRun, err := obs.StartCLIRun("experiments", os.Args[1:], *logJSON, tracePath, *obsOut, *metricsOut)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obsRun.Context(ctx)

	// The report streams into a staged temp file; it is renamed into place
	// on success — or on interruption, carrying only the experiments that
	// finished (each section is written whole after its experiment
	// completes, so the committed file never holds a torn table).
	var out io.Writer = os.Stdout
	var pending *robust.PendingFile
	if *outFlag != "" {
		p, err := robust.CreateAtomic(*outFlag)
		if err != nil {
			log.Fatal(err)
		}
		defer p.Abort()
		pending = p
		out = p
	}
	finish := func(err error) {
		if err == nil {
			return
		}
		// Flush observability and profiles before any exit so a canceled
		// run still leaves a usable trace, manifest and profile behind.
		if oerr := obsRun.Finish(); oerr != nil {
			log.Print(oerr)
		}
		if perr := stopProfiling(); perr != nil {
			log.Print(perr)
		}
		if errors.Is(err, context.Canceled) {
			if pending != nil {
				if cerr := pending.Commit(); cerr != nil {
					log.Print(cerr)
				}
			}
			log.Print("interrupted; completed experiments flushed")
			os.Exit(exitInterrupted)
		}
		log.Fatal(err)
	}

	start := time.Now()
	study, err := specchar.RunContext(ctx, cfg)
	finish(err)
	if obsRun.Enabled() {
		if merr := obsRun.Manifest.SetConfig(cfg); merr != nil {
			log.Print(merr)
		}
		study.Describe(obsRun.Manifest)
	}
	// The report carries no timing and no paths, so a run reproduces it
	// byte for byte; both go to stderr.
	log.Printf("setup %.1fs", time.Since(start).Seconds())
	fmt.Fprintf(out, "specchar experiment run (%d CPU2006 samples, %d OMP2001 samples)\n\n",
		study.CPU.Len(), study.OMP.Len())
	for _, id := range ids {
		finish(ctx.Err())
		report, err := study.Run(strings.TrimSpace(id))
		finish(err)
		fmt.Fprintf(out, "==================== %s ====================\n\n%s\n", id, report)
	}
	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			log.Fatal(err)
		}
		// A slice, not a map: the figures are written in figure order on
		// every run.
		for _, fig := range []struct{ name, dot string }{
			{"figure1.dot", study.CPUTree.RenderDot("Figure 1: SPEC CPU2006 model tree")},
			{"figure2.dot", study.OMPTree.RenderDot("Figure 2: SPEC OMP2001 model tree")},
		} {
			path := filepath.Join(*dotDir, fig.name)
			if err := robust.WriteFileAtomic(path, []byte(fig.dot), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", path)
		}
	}
	if pending != nil {
		if err := pending.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	if err := obsRun.Finish(); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiling(); err != nil {
		log.Fatal(err)
	}
}
