package main

// The convert and score subcommands are the CLI surface of the columnar
// ingest path: convert re-encodes a parsed dataset as the zero-parse
// columnar artifact (and back, for inspection), and score runs a
// compiled model over any dataset file — column-major when the input is
// columnar, row-major otherwise — so the two scoring paths can be
// compared end to end from the shell.

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/robust"
)

// readDatasetFile loads a dataset by extension: .spcol columnar
// artifacts (materialized to rows), .arff, or CSV for anything else.
func readDatasetFile(path string) (*dataset.Dataset, error) {
	if strings.EqualFold(filepath.Ext(path), ".spcol") {
		c, err := dataset.OpenColumnar(path)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Dataset(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".arff") {
		return dataset.ReadARFF(f)
	}
	return dataset.ReadCSV(f)
}

// runConvert re-encodes a dataset file; the formats are chosen by the
// input and output extensions (.csv, .arff, .spcol).
func runConvert(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	inFlag := fs.String("i", "", "input dataset (.csv, .arff, or .spcol; required)")
	outFlag := fs.String("o", "", "output dataset (.csv, .arff, or .spcol; required)")
	fs.Parse(args)
	if *inFlag == "" || *outFlag == "" {
		return errors.New("convert: -i and -o are required")
	}
	d, err := readDatasetFile(*inFlag)
	if err != nil {
		return err
	}
	if obsRun.Enabled() {
		obsRun.Manifest.AddDataset(d.Shape(filepath.Base(*inFlag)))
	}
	p, err := robust.CreateAtomic(*outFlag)
	if err != nil {
		return err
	}
	defer p.Abort()
	switch ext := strings.ToLower(filepath.Ext(*outFlag)); ext {
	case ".spcol":
		err = d.WriteColumnar(p)
	case ".arff":
		err = d.WriteARFF(p, strings.TrimSuffix(filepath.Base(*inFlag), filepath.Ext(*inFlag)))
	case ".csv":
		err = d.WriteCSV(p)
	default:
		return fmt.Errorf("convert: unknown output format %q (want .csv, .arff, or .spcol)", ext)
	}
	if err != nil {
		return err
	}
	if err := p.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "convert: %d samples x %d attributes -> %s\n",
		d.Len(), d.Schema.NumAttrs(), *outFlag)
	return nil
}

// runScore loads a compiled-tree artifact and scores a dataset file
// through it: column-major input for .spcol files (zero-copy when
// mapped), row-major input otherwise; both score bit-identically.
// Predictions print one per line in full precision; -check compares
// them against a reference prediction file instead and fails on
// divergence.
func runScore(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	modelFlag := fs.String("model", "", "compiled-tree artifact from 'specchar compile' (required)")
	dataFlag := fs.String("data", "", "dataset to score (.csv, .arff, or .spcol; required)")
	outFlag := fs.String("o", "", "write predictions here (default stdout)")
	checkFlag := fs.String("check", "", "compare predictions against this reference file instead of printing")
	tolFlag := fs.Float64("tol", 1e-9, "max |difference| tolerated by -check")
	workersFlag := fs.Int("workers", 0, "scoring worker count (0 = all cores, 1 = serial)")
	fs.Parse(args)
	if *modelFlag == "" || *dataFlag == "" {
		return errors.New("score: -model and -data are required")
	}

	mf, err := os.Open(*modelFlag)
	if err != nil {
		return err
	}
	ctree, err := mtree.ReadCompiled(mf)
	mf.Close()
	if err != nil {
		return err
	}
	ctree = ctree.WithWorkers(*workersFlag)

	var preds []float64
	if strings.EqualFold(filepath.Ext(*dataFlag), ".spcol") {
		c, err := dataset.OpenColumnar(*dataFlag)
		if err != nil {
			return err
		}
		defer c.Close()
		preds, err = ctree.PredictColumnsCheckedContext(ctx, c.Columns(), c.Len())
		if err != nil {
			return err
		}
	} else {
		d, err := readDatasetFile(*dataFlag)
		if err != nil {
			return err
		}
		preds, err = ctree.PredictDatasetCheckedContext(ctx, d)
		if err != nil {
			return err
		}
	}

	if *checkFlag != "" {
		return checkPredictions(preds, *checkFlag, *tolFlag)
	}
	out := io.Writer(os.Stdout)
	if *outFlag != "" {
		p, err := robust.CreateAtomic(*outFlag)
		if err != nil {
			return err
		}
		defer p.Abort()
		bw := bufio.NewWriter(p)
		if err := writePredictions(bw, preds); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return p.Commit()
	}
	return writePredictions(out, preds)
}

func writePredictions(w io.Writer, preds []float64) error {
	for _, p := range preds {
		if _, err := fmt.Fprintln(w, strconv.FormatFloat(p, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// checkPredictions compares computed predictions against a reference
// file (one float per line) and fails on count or value divergence
// beyond tol — the shell-level equivalence gate between the row-major
// and column-major scoring paths.
func checkPredictions(preds []float64, refPath string, tol float64) error {
	f, err := os.Open(refPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i, worst := 0, 0.0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if i >= len(preds) {
			return fmt.Errorf("score: reference %s has more predictions than computed (%d)", refPath, len(preds))
		}
		ref, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("score: reference line %d: %w", i+1, err)
		}
		if d := math.Abs(preds[i] - ref); d > tol || math.IsNaN(d) {
			return fmt.Errorf("score: prediction %d diverges: computed %v, reference %v (|diff| %g > tol %g)",
				i, preds[i], ref, d, tol)
		} else if d > worst {
			worst = d
		}
		i++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if i != len(preds) {
		return fmt.Errorf("score: reference %s has %d predictions, computed %d", refPath, i, len(preds))
	}
	fmt.Fprintf(os.Stderr, "score: %d predictions match %s (worst |diff| %g, tol %g)\n",
		len(preds), refPath, worst, tol)
	return nil
}
