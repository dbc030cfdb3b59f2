package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"specchar"
	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/suites"
)

// setupReps is how many times a workload sets up in an untraced run; the
// reported setup_s is the median, which also discounts the first, cold
// repetition.
const setupReps = 5

// Serving rounds that study and induce run after each timed unit, up to
// deployRounds in all (topped up after the last unit): study's units are
// long and few, induce's short and many.
const (
	deployRounds        = 12
	studyRoundsPerUnit  = 6
	induceRoundsPerUnit = 2
)

// attributionTolerance bounds the share of a traced unit's wall time
// that its child spans may leave unexplained.
const attributionTolerance = 0.02

// timed runs one repetition after a forced collection, which leaves the
// previous repetition's garbage out of it, and returns its wall time in
// seconds and the CPU share stolen meanwhile.
func timed(fn func() error) (rep, error) {
	runtime.GC()
	m := startSteal()
	if err := fn(); err != nil {
		return rep{}, err
	}
	return rep{value: time.Since(m.start).Seconds(), stolen: m.share()}, nil
}

// repeat runs set-up setupReps times (once when traced).
func (r *run) repeat(fn func() error) ([]rep, error) {
	n := setupReps
	if r.traced {
		n = 1
	}
	var reps []rep
	for i := 0; i < n; i++ {
		t, err := timed(fn)
		if err != nil {
			return nil, err
		}
		reps = append(reps, t)
	}
	return reps, nil
}

// minUnits is the fewest timed units a run makes. A study unit takes
// about as long as a usual run's seconds, and a fixed count keeps the
// process's work, and so its peak RSS, the same from run to run.
const minUnits = 2

// measure repeats unit until the repetitions add up to the run's seconds
// (at least minUnits times), calling after, outside the timed part,
// following each.
func (r *run) measure(unit, after func() error) ([]rep, error) {
	var reps []rep
	var total time.Duration
	for len(reps) < minUnits || total < r.seconds {
		t, err := timed(unit)
		if err != nil {
			return nil, err
		}
		reps = append(reps, t)
		total += time.Duration(t.value * float64(time.Second))
		if err := after(); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// withValues pairs per-repetition values with the repetitions' stolen
// shares.
func withValues(reps []rep, values []float64) []rep {
	out := make([]rep, len(reps))
	for i := range reps {
		out[i] = rep{value: values[i], stolen: reps[i].stolen}
	}
	return out
}

func runStudy(ctx context.Context, r *run) error {
	cfg := config(scaleDefault, r.seed)
	quick := config(scaleQuick, r.seed)
	// Set-up is the pipeline's generation and induction at QuickConfig
	// scale: it warms the process and, being short-windowed, is dominated
	// by the per-phase preload and warm-up that the timed pipeline
	// amortizes.
	setups, err := r.repeat(func() error {
		data, _, err := generate(ctx, quick.Gen)
		if err != nil {
			return err
		}
		st, err := induceStudy(ctx, quick, data)
		if err != nil {
			return err
		}
		r.op("set-up pipeline", r.verifyStudy(scaleQuick, data, st))
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", quietMedian(setups))

	var mops []float64
	unit := func(ctx context.Context) (*specchar.Study, error) {
		uctx, sp := span(ctx, "unit")
		defer sp.End()
		data, genWall, err := generate(uctx, cfg.Gen)
		if err != nil {
			return nil, err
		}
		st, err := induceStudy(uctx, cfg, data)
		if err != nil {
			return nil, err
		}
		verdicts, err := assessAll(uctx, st)
		if err != nil {
			return nil, err
		}
		perr := profileAll(uctx, st)
		_, csp := span(uctx, "check")
		r.op("study pipeline", errors.Join(perr, r.verifyStudy(scaleDefault, data, st), checkRoots(st), checkVerdicts(verdicts, r.seed == 0)))
		r.logf("transfer verdicts %v", verdicts)
		csp.End()
		mops = append(mops, simMops(cfg.Gen, genWall))
		return st, nil
	}
	if r.traced {
		return r.traceUnit(ctx, nil, cfg.Gen, unit)
	}
	var last *specchar.Study
	var d deployment
	defer d.close()
	walls, err := r.measure(func() (err error) {
		last, err = unit(ctx)
		return err
	}, func() error { return r.deploy(ctx, &d, last, studyRoundsPerUnit) })
	if err != nil {
		return err
	}
	if err := r.deploy(ctx, &d, last, deployRounds); err != nil {
		return err
	}
	r.set("wall_s", quietMedian(walls))
	r.set("sim_mops", quietMedian(withValues(walls, mops)))
	r.setLatencyP50s(d.rounds)
	return nil
}

func runInduce(ctx context.Context, r *run) error {
	cfg := config(scaleShort, r.seed)
	var tr *tracer
	sctx := ctx
	if r.traced {
		tr = newTracer()
		sctx = tr.attach(ctx)
	}
	// Set-up generates both suites at short windows: the fixed data the
	// timed induction runs on.
	var data []*dataset.Dataset
	var mops []float64
	setups, err := r.repeat(func() error {
		d, genWall, err := generate(sctx, cfg.Gen)
		if err != nil {
			return err
		}
		dd, err := dataDigests(d)
		if err != nil {
			return err
		}
		r.op("set-up generation", r.verify(scaleShort, dd))
		mops = append(mops, simMops(cfg.Gen, genWall))
		data = d
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", quietMedian(setups))
	r.set("sim_mops", quietMedian(withValues(setups, mops)))

	unit := func(ctx context.Context) (*specchar.Study, error) {
		uctx, sp := span(ctx, "unit")
		defer sp.End()
		st, err := induceStudy(uctx, cfg, data)
		if err != nil {
			return nil, err
		}
		cv, err := crossValidate(uctx, st)
		if err != nil {
			return nil, err
		}
		imp, err := importance(uctx, st)
		if err != nil {
			return nil, err
		}
		_, csp := span(uctx, "check")
		r.op("induction", errors.Join(r.verifyInduction(st, cv, imp), checkRoots(st)))
		csp.End()
		return st, nil
	}
	if r.traced {
		return r.traceUnit(ctx, tr, cfg.Gen, unit)
	}
	var last *specchar.Study
	var d deployment
	defer d.close()
	walls, err := r.measure(func() (err error) {
		last, err = unit(ctx)
		return err
	}, func() error { return r.deploy(ctx, &d, last, induceRoundsPerUnit) })
	if err != nil {
		return err
	}
	if err := r.deploy(ctx, &d, last, deployRounds); err != nil {
		return err
	}
	r.set("wall_s", quietMedian(walls))
	r.setLatencyP50s(d.rounds)
	return nil
}

func runServe(ctx context.Context, r *run) error {
	cfg := config(scaleShort, r.seed)
	var tr *tracer
	sctx := ctx
	if r.traced {
		tr = newTracer()
		sctx = tr.attach(ctx)
	}
	// Set-up builds what the server needs: short-window data, the study's
	// compiled trees (the served model and its hot-swap alternate), the
	// durable registry and listener, and the client's request pool.
	var st *specchar.Study
	var srv *server
	var p *pool
	var trees [2]*mtree.CompiledTree
	var mops []float64
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	setups, err := r.repeat(func() error {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
			srv = nil
		}
		data, genWall, err := generate(sctx, cfg.Gen)
		if err != nil {
			return err
		}
		if st, err = induceStudy(sctx, cfg, data); err != nil {
			return err
		}
		trees = [2]*mtree.CompiledTree{st.CPUTreeCompiled, st.CPUModelCompiled}
		if srv, err = startServer(r.workDir, trees, nil); err != nil {
			return err
		}
		if p, err = newPool(st.CPU, trees, r.seed); err != nil {
			return err
		}
		r.op("set-up", r.verifyStudy(scaleShort, data, st))
		mops = append(mops, simMops(cfg.Gen, genWall))
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", quietMedian(setups))
	r.set("sim_mops", quietMedian(withValues(setups, mops)))

	sched := schedule(roundLen, interactiveRPS, bulkRPS, true, r.seed)
	if r.traced {
		untraced := srv.replay(ctx, sched, p)
		r.record(untraced)
		tsrv, err := startServer(r.workDir, trees, tr.rec)
		if err != nil {
			return err
		}
		defer tsrv.close()
		tctx, sp := span(sctx, "unit")
		_, rsp := span(tctx, "serve.replay")
		traced := tsrv.replay(tctx, sched, p)
		rsp.End()
		sp.End()
		r.record(traced)
		if err := r.servingLayer(tsrv, traced); err != nil {
			return err
		}
		return r.layers(sctx, tr, cfg.Gen, st, untraced.wall, tsrv, p)
	}
	r.record(srv.replay(ctx, sched, p)) // warm-up: checked, not measured
	var rounds []*traffic
	var walls []rep
	for start := time.Now(); len(rounds) == 0 || time.Since(start) < r.seconds; {
		t := srv.replay(ctx, sched, p)
		r.record(t)
		rounds = append(rounds, t)
		walls = append(walls, rep{t.wall.Seconds(), t.stolen})
	}
	r.set("wall_s", quietMedian(walls))
	r.setLatencyP50s(rounds)
	return nil
}

// deployment serves a study's CPU2006 tree (hot-swapping with its 10%
// model) between the timed units of study and induce: the scoring step
// after training, measured so every workload reports serving latency.
// Its rounds are spread over the whole measured phase, so a disturbance
// of the host that lasts a few seconds reaches only some of them.
type deployment struct {
	srv    *server
	pool   *pool
	sched  []request
	rounds []*traffic
}

// deploy runs n more measured serving rounds, up to deployRounds in all.
// The first call starts the server on st's trees and runs one warm-up
// round, checked but not measured.
func (r *run) deploy(ctx context.Context, d *deployment, st *specchar.Study, n int) error {
	if d.srv == nil {
		trees := [2]*mtree.CompiledTree{st.CPUTreeCompiled, st.CPUModelCompiled}
		p, err := newPool(st.CPU, trees, r.seed)
		if err != nil {
			return err
		}
		if d.srv, err = startServer(r.workDir, trees, nil); err != nil {
			return err
		}
		d.pool, d.sched = p, schedule(roundLen, interactiveRPS, bulkRPS, true, r.seed)
		r.record(d.srv.replay(ctx, d.sched, d.pool))
	}
	for i := 0; i < n && len(d.rounds) < deployRounds; i++ {
		t := d.srv.replay(ctx, d.sched, d.pool)
		r.record(t)
		d.rounds = append(d.rounds, t)
	}
	return nil
}

func (d *deployment) close() {
	if d.srv != nil {
		d.srv.close()
	}
}

// setLatencyP50s reports the serving metrics of a run from its rounds:
// the median latency of each request kind over every request of the
// quietest rounds (see quietest), pooled, so that the
// median rests on hundreds of requests rather than on a few rounds.
func (r *run) setLatencyP50s(rounds []*traffic) {
	for i, t := range rounds {
		r.logf("round %d: interactive p50 %.3f ms, bulk p50 %.3f ms, stolen %.3f", i, median(t.latencies(interactive)), median(t.latencies(bulk)), t.stolen)
	}
	var il, bl []float64
	for _, t := range quietest(rounds, func(t *traffic) float64 { return t.stolen }) {
		il = append(il, t.latencies(interactive)...)
		bl = append(bl, t.latencies(bulk)...)
	}
	r.set("interactive_p50_ms", median(il))
	r.set("bulk_p50_ms", median(bl))
}

// traceUnit is the traced run of a workload whose unit is a pipeline
// (study, induce): the unit once untraced, once traced, then the layer
// probes.
func (r *run) traceUnit(ctx context.Context, tr *tracer, gen suites.GenOptions, unit func(context.Context) (*specchar.Study, error)) error {
	t0 := time.Now()
	if _, err := unit(ctx); err != nil {
		return err
	}
	untraced := time.Since(t0)
	if tr == nil {
		tr = newTracer()
	}
	tctx := tr.attach(ctx)
	st, err := unit(tctx)
	if err != nil {
		return err
	}
	trees := [2]*mtree.CompiledTree{st.CPUTreeCompiled, st.CPUModelCompiled}
	srv, err := startServer(r.workDir, trees, tr.rec)
	if err != nil {
		return err
	}
	defer srv.close()
	p, err := newPool(st.CPU, trees, r.seed)
	if err != nil {
		return err
	}
	t := srv.replay(tctx, schedule(roundLen, interactiveRPS, bulkRPS, true, r.seed), p)
	r.record(t)
	if err := r.servingLayer(srv, t); err != nil {
		return err
	}
	return r.layers(tctx, tr, gen, st, untraced, srv, p)
}

// layers completes a traced run: it runs whatever pipeline stages the
// workload's traced work did not (so every layer is measured on every
// workload, at that workload's scale), the simulator and scoring probes
// and the serving rate ladder, then derives the per-layer metrics from
// the recorded spans and writes the trace out.
func (r *run) layers(ctx context.Context, tr *tracer, gen suites.GenOptions, st *specchar.Study, untraced time.Duration, srv *server, p *pool) error {
	have := tr.tree()
	if len(have.named("cv")) == 0 {
		if _, err := crossValidate(ctx, st); err != nil {
			return err
		}
		if _, err := importance(ctx, st); err != nil {
			return err
		}
	}
	if len(have.named("assess")) == 0 {
		if _, err := assessAll(ctx, st); err != nil {
			return err
		}
		if err := profileAll(ctx, st); err != nil {
			return err
		}
	}
	if err := r.probeBenchmarks(ctx, gen, []*dataset.Dataset{st.CPU, st.OMP}); err != nil {
		return err
	}
	if err := r.probeSimulator(gen); err != nil {
		return err
	}
	if err := r.probePredict(st.CPUTreeCompiled, st.CPU); err != nil {
		return err
	}
	r.ladder(ctx, srv, p)

	t := tr.tree()
	r.set("suites.generate_ms.cpu2006", sumWall(t.named("gen.cpu2006")))
	r.set("suites.generate_ms.omp2001", sumWall(t.named("gen.omp2001")))
	r.set("sim.ops", float64(simOps(gen)))
	induced := t.named("study.induce")
	if len(induced) != 1 {
		return fmt.Errorf("traced run induced %d studies, want 1", len(induced))
	}
	id := induced[0].ID
	r.set("mtree.build_ms", sumWall(t.within(id, "mtree.build")))
	for _, stage := range []string{"presort", "grow", "fit", "prune"} {
		r.set("mtree.build."+stage+"_ms", t.sumSelf(t.within(id, "mtree.build."+stage)))
	}
	r.set("mtree.compile_ms", sumWall(t.within(id, "mtree.compile")))
	r.set("mtree.cv_ms", sumWall(t.named("cv")))
	r.set("mtree.importance_ms", sumWall(t.named("importance")))
	r.set("mtree.leaves", float64(st.CPUTree.NumLeaves()+st.OMPTree.NumLeaves()+st.CPUModel.NumLeaves()+st.OMPModel.NumLeaves()))
	r.set("transfer.assess_ms", sumWall(t.named("assess")))
	r.set("characterize.profile_ms", sumWall(t.named("profiles")))

	units := t.named("unit")
	if len(units) != 1 {
		return fmt.Errorf("traced run recorded %d units, want 1", len(units))
	}
	u := units[0]
	unattributed := u.DurMS - t.covered(u)
	r.set("trace.unattributed_ms", unattributed)
	r.set("trace.overhead_s", u.DurMS/1e3-untraced.Seconds())
	var attrErr error
	if unattributed > attributionTolerance*u.DurMS {
		attrErr = fmt.Errorf("child spans leave %.3f ms of the %.3f ms unit unattributed (tolerance %.0f%%)", unattributed, u.DurMS, attributionTolerance*100)
	}
	r.op("trace attribution", attrErr)
	r.logf("traced unit %.1f ms, untraced %.1f ms, unattributed %.3f ms", u.DurMS, ms(untraced), unattributed)
	return t.write(filepath.Join(r.workDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed)))
}

// servingLayer derives the serving per-layer metrics from traffic sent
// to a server that records to the tracer.
func (r *run) servingLayer(srv *server, t *traffic) error {
	c, err := srv.counters("specchard_samples_scored_total", "specchard_batches_total", "specchard_columnar_batches_total")
	if err != nil {
		return err
	}
	batches := c["specchard_batches_total"]
	if batches == 0 {
		return errors.New("server flushed no batches")
	}
	var jsonUS []float64
	for _, o := range t.outcomes {
		if o.kind != put && o.err == nil {
			jsonUS = append(jsonUS, o.jsonUS)
		}
	}
	late := t.lateness()
	r.set("serve.interactive_p99_ms", quantile(t.latencies(interactive), 0.99))
	r.set("serve.bulk_p99_ms", quantile(t.latencies(bulk), 0.99))
	r.set("serve.late_p50_ms", median(late))
	r.set("serve.late_max_ms", maxOf(late))
	r.set("serve.samples_per_flush", c["specchard_samples_scored_total"]/batches)
	r.set("serve.columnar_share", c["specchard_columnar_batches_total"]/batches)
	r.set("serve.json_us", mean(jsonUS))
	r.set("registry.put_ms", median(t.latencies(put)))
	return nil
}

// ladder offers interactive-only traffic at each ladder rate and reports
// the highest rate whose p99 meets p99LimitMS with no growing backlog
// (the generator's lateness over the last quarter of a step exceeding
// that over the first quarter by more than 5 ms).
func (r *run) ladder(ctx context.Context, srv *server, p *pool) {
	best := 0
	for _, rps := range ladderRPS {
		t := srv.replay(ctx, schedule(2*roundLen, rps, 0, false, r.seed), p)
		r.record(t)
		lat := t.latencies(interactive)
		late := t.lateness()
		q := len(late) / 4
		growing := median(late[len(late)-q:]) > median(late[:q])+5
		p99 := quantile(lat, 0.99)
		ok := t.failures() == 0 && p99 <= p99LimitMS && !growing
		if ok {
			best = rps
		}
		r.logf("ladder %4d req/s: sent %d, succeeded %d, failed %d, p50 %.2f ms, p99 %.2f ms, backlog growing %v, meets limit %v",
			rps, len(t.outcomes), len(t.outcomes)-t.failures(), t.failures(), median(lat), p99, growing, ok)
	}
	r.set("serve.max_rps", float64(best))
}
