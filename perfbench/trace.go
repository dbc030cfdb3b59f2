package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"specchar/internal/obs"
)

// span opens a benchmark span around one layer call. Without a recorder
// in ctx (the untraced run) it is a no-op, so traced and untraced runs
// execute the same code.
func span(ctx context.Context, name string, attrs ...obs.Attr) (context.Context, *obs.Span) {
	return obs.FromContext(ctx).StartSpan(ctx, name, attrs...)
}

// tracer keeps every span of a traced run in memory: the benchmark's own
// spans around each layer call and the program's spans below them (for
// example mtree.build.*), all recorded through one obs.Recorder.
type tracer struct {
	rec  *obs.Recorder
	sink *obs.MemorySink
}

func newTracer() *tracer {
	sink := obs.NewMemorySink()
	return &tracer{rec: obs.New(sink), sink: sink}
}

func (t *tracer) attach(ctx context.Context) context.Context { return obs.WithRecorder(ctx, t.rec) }

// spanTree indexes the recorded spans by parent.
type spanTree struct {
	events   []obs.Event
	children map[uint64][]int
}

func (t *tracer) tree() *spanTree {
	st := &spanTree{children: map[uint64][]int{}}
	for _, e := range t.sink.Events() {
		if e.Kind != "span" {
			continue
		}
		st.events = append(st.events, e)
	}
	sort.Slice(st.events, func(i, j int) bool { return st.events[i].ID < st.events[j].ID })
	for i, e := range st.events {
		st.children[e.Parent] = append(st.children[e.Parent], i)
	}
	return st
}

// named returns the spans called name, in start order.
func (st *spanTree) named(name string) []obs.Event {
	var out []obs.Event
	for _, e := range st.events {
		if e.Span == name {
			out = append(out, e)
		}
	}
	return out
}

// within returns the descendants of the span id called name.
func (st *spanTree) within(id uint64, name string) []obs.Event {
	var out []obs.Event
	var walk func(uint64)
	walk = func(p uint64) {
		for _, i := range st.children[p] {
			e := st.events[i]
			if e.Span == name {
				out = append(out, e)
			}
			walk(e.ID)
		}
	}
	walk(id)
	return out
}

// covered returns how many milliseconds of the span's interval its
// direct children cover. Children may overlap (parallel folds, pooled
// benchmarks), so this is the length of the union of their intervals,
// clipped to the parent.
func (st *spanTree) covered(e obs.Event) float64 {
	lo, hi := float64(e.StartUS), float64(e.StartUS)+e.DurMS*1e3
	var iv [][2]float64
	for _, i := range st.children[e.ID] {
		c := st.events[i]
		a, b := max(float64(c.StartUS), lo), min(float64(c.StartUS)+c.DurMS*1e3, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	for k, x := range iv {
		if k == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	total += curB - curA
	return total / 1e3
}

// self is the span's duration minus the part its children cover.
func (st *spanTree) self(e obs.Event) float64 { return e.DurMS - st.covered(e) }

// sumWall totals the durations of spans; sumSelf their self times.
func sumWall(es []obs.Event) float64 {
	var s float64
	for _, e := range es {
		s += e.DurMS
	}
	return s
}

func (st *spanTree) sumSelf(es []obs.Event) float64 {
	var s float64
	for _, e := range es {
		s += st.self(e)
	}
	return s
}

// tracedSpan is one span of the written trace file.
type tracedSpan struct {
	obs.Event
	SelfMS float64 `json:"self_ms"`
}

// write stores every span, with its self time, as one JSON document.
func (st *spanTree) write(path string) error {
	out := make([]tracedSpan, len(st.events))
	for i, e := range st.events {
		out[i] = tracedSpan{Event: e, SelfMS: st.self(e)}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
