package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/registry"
)

// fixture bundles a server over a registry holding one trained model,
// plus the dataset it was trained on for equivalence checks.
type fixture struct {
	reg  *registry.Registry
	srv  *Server
	ts   *httptest.Server
	tree *mtree.CompiledTree
	data *dataset.Dataset
}

// trainedModel builds a deterministic compiled tree over a synthetic
// piecewise response; distinct seeds give trees with distinct
// predictions.
func trainedModel(t testing.TB, seed int64, n int) (*mtree.CompiledTree, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := &dataset.Schema{Response: "CPI", Attributes: []string{"l1d", "l2", "br", "tlb"}}
	d := dataset.New(schema)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := float64(seed) + 3*x[0] - 2*x[1]
		if x[2] > 0.5 {
			y += 5 * x[3]
		}
		if err := d.Append(dataset.Sample{X: x, Y: y + 0.01*rng.NormFloat64(), Label: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = 15
	tree, err := mtree.Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	tree, d := trainedModel(t, 7, 1200)
	reg := registry.New()
	if _, err := reg.Load("cpu2006", tree, "test"); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &fixture{reg: reg, srv: srv, ts: ts, tree: tree, data: d}
}

// parkBatcher installs model's batcher on srv with its dispatcher held
// back: submissions queue and count against MaxPending, but nothing
// flushes until release starts the dispatcher. Tests use it to keep work
// queued without racing a timer. release is idempotent and also runs at
// cleanup, so Close never waits on a dispatcher that never started.
func parkBatcher(t testing.TB, srv *Server, model string) (*batcher, func()) {
	t.Helper()
	b := newBatcher(srv, model)
	srv.mu.Lock()
	srv.batchers[model] = b
	srv.mu.Unlock()
	release := sync.OnceFunc(func() { go b.run() })
	t.Cleanup(release)
	return b, release
}

// waitQueued blocks until b's queue holds n jobs.
func waitQueued(t testing.TB, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(b.jobs) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d jobs, want %d", len(b.jobs), n)
		}
	}
}

// score posts one request and decodes the response, returning the HTTP
// status and either the score body or the error body.
func (f *fixture) score(t testing.TB, model string, rows [][]float64) (int, scoreResponse, string) {
	t.Helper()
	body, err := json.Marshal(scoreRequest{Model: model, Samples: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var sr scoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sr, ""
	}
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, scoreResponse{}, er.Error
}

func rowsOf(d *dataset.Dataset, lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for _, s := range d.Samples[lo:hi] {
		out = append(out, s.X)
	}
	return out
}

// Served scores must match per-sample Predict bit for bit: the daemon is
// a transport around the compiled scorer, not a different scorer. Each
// size tiles the first max(400, size) samples, so every batch size —
// from single samples to one 1000-sample request — is scored as a
// request of that size and as ragged remainders.
func TestServedScoresMatchPredictDataset(t *testing.T) {
	f := newFixture(t, Config{})
	for _, batch := range []int{1, 3, 16, 64, 200, 255, 256, 257, 300, 1000} {
		n := max(400, batch)
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			status, sr, emsg := f.score(t, "cpu2006", rowsOf(f.data, lo, hi))
			if status != http.StatusOK {
				t.Fatalf("batch %d [%d:%d]: status %d (%s)", batch, lo, hi, status, emsg)
			}
			if len(sr.Predictions) != hi-lo {
				t.Fatalf("got %d predictions, want %d", len(sr.Predictions), hi-lo)
			}
			if sr.Model != "cpu2006" || sr.Version != 1 {
				t.Fatalf("response identity wrong: %+v", sr)
			}
			for i, got := range sr.Predictions {
				if want := f.tree.Predict(f.data.Samples[lo+i].X); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("batch %d sample %d: served %v, Predict %v", batch, lo+i, got, want)
				}
			}
		}
	}
}

// TestColumnarRouteBitIdentical sends single requests at and above 256
// samples, the size at which the daemon used to re-lay batches out as
// columns, and holds them bitwise against per-sample Predict. Each
// request must be scored as one row batch: no columnar counter appears,
// and the last batch holds the whole 1000-sample request.
func TestColumnarRouteBitIdentical(t *testing.T) {
	f := newFixture(t, Config{Recorder: obs.New()})
	for _, batch := range []int{255, 256, 257, 300, 1000} {
		status, sr, emsg := f.score(t, "cpu2006", rowsOf(f.data, 0, batch))
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d (%s)", batch, status, emsg)
		}
		if len(sr.Predictions) != batch {
			t.Fatalf("batch %d: got %d predictions", batch, len(sr.Predictions))
		}
		for i, got := range sr.Predictions {
			if want := f.tree.Predict(f.data.Samples[i].X); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("batch %d sample %d: served %v, Predict %v", batch, i, got, want)
			}
		}
	}

	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	if strings.Contains(b.String(), "columnar") {
		t.Fatalf("metrics still report a columnar route:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "specchard_last_batch_samples 1000\n") {
		t.Fatalf("1000-sample request not scored as one batch:\n%s", b.String())
	}
}

func TestScoreValidation(t *testing.T) {
	f := newFixture(t, Config{})
	post := func(body string) (int, string) {
		resp, err := http.Post(f.ts.URL+"/v1/score", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty body":       {"", http.StatusBadRequest},
		"not json":         {"hi", http.StatusBadRequest},
		"no model":         {`{"samples":[[1,2,3,4]]}`, http.StatusBadRequest},
		"no samples":       {`{"model":"cpu2006"}`, http.StatusBadRequest},
		"unknown model":    {`{"model":"nope","samples":[[1,2,3,4]]}`, http.StatusNotFound},
		"width mismatch":   {`{"model":"cpu2006","samples":[[1,2]]}`, http.StatusBadRequest},
		"ragged samples":   {`{"model":"cpu2006","samples":[[1,2,3,4],[1]]}`, http.StatusBadRequest},
		"trailing garbage": {`{"model":"cpu2006","samples":[[1,2,3,4]]}{"x":1}`, http.StatusBadRequest},
	} {
		if got, msg := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d (%s), want %d", name, got, msg, tc.want)
		}
	}
}

func TestAdminSurface(t *testing.T) {
	f := newFixture(t, Config{})
	get := func(path string) (int, string) {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	if status, body := get("/v1/models"); status != 200 ||
		!strings.Contains(body, `"name":"cpu2006"`) || !strings.Contains(body, `"version":1`) {
		t.Errorf("list: %d %s", status, body)
	}
	if status, body := get("/v1/models/cpu2006"); status != 200 || !strings.Contains(body, `"attrs":4`) {
		t.Errorf("get: %d %s", status, body)
	}
	if status, _ := get("/v1/models/none"); status != 404 {
		t.Errorf("get missing: %d, want 404", status)
	}
	if status, body := get("/healthz"); status != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz: %d %s", status, body)
	}

	// Upload (hot-swap) a retrained artifact; version must advance.
	tree2, _ := trainedModel(t, 99, 800)
	var art bytes.Buffer
	if _, err := tree2.WriteTo(&art); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, f.ts.URL+"/v1/models/cpu2006", bytes.NewReader(art.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || info.Version != 2 || info.Source != "upload" {
		t.Errorf("put: %d %+v", resp.StatusCode, info)
	}

	// Corrupt artifact: rejected, registry untouched.
	req, _ = http.NewRequest(http.MethodPut, f.ts.URL+"/v1/models/cpu2006", strings.NewReader("not an artifact"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt put: %d, want 400", resp2.StatusCode)
	}
	if m, _ := f.reg.Get("cpu2006"); m.Version != 2 {
		t.Errorf("corrupt put changed registry to version %d", m.Version)
	}

	// Delete, then score → 404.
	req, _ = http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/models/cpu2006", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("delete: %d", resp3.StatusCode)
	}
	if status, _, _ := f.score(t, "cpu2006", [][]float64{{1, 2, 3, 4}}); status != http.StatusNotFound {
		t.Errorf("score after delete: %d, want 404", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t, Config{Recorder: obs.New()})
	if status, _, _ := f.score(t, "cpu2006", rowsOf(f.data, 0, 4)); status != 200 {
		t.Fatalf("score failed: %d", status)
	}
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	out := b.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"specchard_requests_total",
		"specchard_samples_scored_total 4",
		`specchar_stage_rows_total{stage="serve.batch"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// Admission control: once MaxPending samples are queued, a request
// that would exceed the budget is rejected with 429 at once, and the
// flush releases the budget so the model recovers.
func TestAdmissionControl(t *testing.T) {
	f := newFixture(t, Config{MaxPending: 8})
	b, release := parkBatcher(t, f.srv, "cpu2006")
	statuses := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := f.score(t, "cpu2006", rowsOf(f.data, 0, 4))
			statuses <- status
		}()
	}
	waitQueued(t, b, 2) // 8 samples pending: the budget is full
	if status, _, msg := f.score(t, "cpu2006", rowsOf(f.data, 0, 1)); status != http.StatusTooManyRequests {
		t.Errorf("request past a full budget got status %d (%s), want 429", status, msg)
	}
	release()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("admitted request got status %d, want 200", status)
		}
	}
	// Recovery: the full budget is back.
	if status, _, msg := f.score(t, "cpu2006", rowsOf(f.data, 0, 8)); status != http.StatusOK {
		t.Errorf("after the flush a full-budget request failed: %d (%s)", status, msg)
	}
}

// flushLog is an obs sink recording the sample count of every scored
// batch, in flush order.
type flushLog struct {
	mu   sync.Mutex
	rows []int64
}

func (l *flushLog) Emit(ev obs.Event) {
	if ev.Span == "serve.batch" {
		l.mu.Lock()
		l.rows = append(l.rows, ev.Rows)
		l.mu.Unlock()
	}
}

// Greedy batching: jobs already queued when the dispatcher wakes flush
// together, MaxBatch samples at a time, and sharing a flush never
// changes a prediction.
func TestQueuedJobsCoalesce(t *testing.T) {
	flushes := &flushLog{}
	f := newFixture(t, Config{Recorder: obs.New(flushes), MaxBatch: 64})
	b, release := parkBatcher(t, f.srv, "cpu2006")
	type result struct {
		i   int
		out []float64
		err error
	}
	results := make(chan result, 100)
	for i := 0; i < 100; i++ {
		go func() {
			out, _, err := b.submit(context.Background(), rowsOf(f.data, i, i+1))
			results <- result{i, out, err}
		}()
	}
	waitQueued(t, b, 100)
	release()
	for k := 0; k < 100; k++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("job %d: %v", r.i, r.err)
		}
		want := f.tree.Predict(f.data.Samples[r.i].X)
		if len(r.out) != 1 || math.Float64bits(r.out[0]) != math.Float64bits(want) {
			t.Errorf("job %d: served %v, Predict %v", r.i, r.out, want)
		}
	}
	flushes.mu.Lock()
	defer flushes.mu.Unlock()
	if !slices.Equal(flushes.rows, []int64{64, 36}) {
		t.Errorf("flushes held %v samples, want [64 36]", flushes.rows)
	}
}

// Bodies over maxBodyBytes answer 413 on both routes that read one: the
// client has to send less, so no retry can help. A score body is read
// whole before it is decoded, so one that is malformed from its first
// byte answers 413 too.
func TestOversizedBodyIs413(t *testing.T) {
	f := newFixture(t, Config{})
	score := append([]byte(`{"model":"cpu2006","samples":[`), bytes.Repeat([]byte("[1,2,3,4],"), maxBodyBytes/10+1)...)
	for _, tc := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/score", score},
		{http.MethodPost, "/v1/score", append([]byte("not json"), score...)},
		{http.MethodPut, "/v1/models/cpu2006", make([]byte, maxBodyBytes+1)},
	} {
		req, err := http.NewRequest(tc.method, f.ts.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d bytes: status %d, want 413", tc.method, tc.path, len(tc.body), resp.StatusCode)
		}
	}
	if m, _ := f.reg.Get("cpu2006"); m.Version != 1 {
		t.Errorf("oversized put changed the registry to version %d", m.Version)
	}
}

// A prediction JSON cannot carry answers 422 naming the sample, not a
// 200 with an empty body, and a response value that fails to marshal
// answers 500 with an error body of the length it declares.
func TestNonFinitePredictionIs422(t *testing.T) {
	f := newFixture(t, Config{})
	huge := [][]float64{{1, 2, 3, 4}, {math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}}
	if p := f.tree.Predict(huge[1]); !math.IsInf(p, 0) && !math.IsNaN(p) {
		t.Fatalf("fixture predicts %v for MaxFloat64 inputs, want a non-finite value", p)
	}
	status, _, msg := f.score(t, "cpu2006", huge)
	if status != http.StatusUnprocessableEntity || !strings.HasPrefix(msg, "sample 1: prediction is ") {
		t.Errorf("non-finite prediction: status %d (%q), want 422 naming sample 1", status, msg)
	}

	w := httptest.NewRecorder()
	f.srv.writeJSON(w, http.StatusOK, math.Inf(1))
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusInternalServerError || er.Error == "" {
		t.Errorf("unencodable response: status %d, body %q, want 500 with an error", w.Code, w.Body.String())
	}
	if cl := w.Header().Get("Content-Length"); cl != fmt.Sprint(w.Body.Len()) {
		t.Errorf("Content-Length %s for a %d-byte body", cl, w.Body.Len())
	}
}

// The acceptance criterion: hot-swapping the model under sustained
// concurrent scoring loses zero requests, every response carries a
// version that was actually published, and every prediction matches that
// version's offline scores exactly.
func TestHotSwapUnderConcurrentScoringZeroFailures(t *testing.T) {
	f := newFixture(t, Config{})
	const versions = 4
	trees := make([]*mtree.CompiledTree, versions+1)
	arts := make([][]byte, versions+1)
	trees[1] = f.tree
	for v := 2; v <= versions; v++ {
		tree, _ := trainedModel(t, int64(100*v), 800)
		trees[v] = tree
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		arts[v] = buf.Bytes()
	}
	// Per-version expected predictions for the probe block.
	probe := rowsOf(f.data, 0, 16)
	probeDS := &dataset.Dataset{Schema: f.data.Schema, Samples: f.data.Samples[0:16]}
	want := make([][]float64, versions+1)
	for v := 1; v <= versions; v++ {
		var err error
		if want[v], err = trees[v].PredictDatasetCheckedContext(context.Background(), probeDS); err != nil {
			t.Fatal(err)
		}
	}

	var scored atomic.Int64
	errs := make(chan error, 64)
	var scorers sync.WaitGroup
	for g := 0; g < 8; g++ {
		scorers.Add(1)
		go func() {
			defer scorers.Done()
			for i := 0; i < 150; i++ {
				status, sr, emsg := f.score(t, "cpu2006", probe)
				if status != http.StatusOK {
					errs <- fmt.Errorf("request failed during swap: %d (%s)", status, emsg)
					return
				}
				if sr.Version < 1 {
					errs <- fmt.Errorf("response version %d never published", sr.Version)
					return
				}
				// Registry versions are monotonic; swap k (version k+1)
				// published tree 2+(k-1)%(versions-1), version 1 is the
				// original.
				treeIdx := 1
				if sr.Version > 1 {
					treeIdx = 2 + (sr.Version-2)%(versions-1)
				}
				for j, got := range sr.Predictions {
					if got != want[treeIdx][j] {
						errs <- fmt.Errorf("version %d (tree %d) sample %d: served %v, offline %v",
							sr.Version, treeIdx, j, got, want[treeIdx][j])
						return
					}
				}
				scored.Add(1)
			}
		}()
	}
	// Swap continuously (2→3→4→2→…) while the scorers run.
	done := make(chan struct{})
	go func() { scorers.Wait(); close(done) }()
	swaps := 0
	for {
		select {
		case <-done:
		default:
			v := 2 + swaps%(versions-1)
			req, _ := http.NewRequest(http.MethodPut, f.ts.URL+"/v1/models/cpu2006", bytes.NewReader(arts[v]))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("swap %d failed: %d", swaps, resp.StatusCode)
			}
			swaps++
			continue
		}
		break
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if scored.Load() != 8*150 {
		t.Errorf("scored %d, want %d (zero failed requests)", scored.Load(), 8*150)
	}
	if swaps == 0 {
		t.Error("no swap happened during scoring")
	}
	t.Logf("%d scores across %d hot-swaps, zero failures", scored.Load(), swaps)
}

// Shutdown drains: requests admitted before Close are scored, requests
// after it are rejected with 503.
func TestDrainScoresAdmittedWork(t *testing.T) {
	tree, d := trainedModel(t, 7, 1200)
	reg := registry.New()
	if _, err := reg.Load("m", tree, "test"); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	b, release := parkBatcher(t, srv, "m")
	type result struct {
		out []float64
		err error
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			out, _, err := b.submit(context.Background(), rowsOf(d, i*4, i*4+4))
			results <- result{out, err}
		}()
	}
	// Close lands while all four jobs are still queued: the dispatcher
	// starts only once admission is shut, so the drain must score them.
	waitQueued(t, b, 4)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		b.drainMu.RLock()
		draining = b.draining
		b.drainMu.RUnlock()
	}
	release()
	<-closed
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Errorf("admitted request failed during drain: %v", r.err)
		} else if len(r.out) != 4 {
			t.Errorf("admitted request returned %d predictions, want 4", len(r.out))
		}
	}
	// After Close: new work is refused.
	if _, err := srv.batcherFor("m"); err == nil {
		t.Error("batcherFor after Close should refuse")
	}
	if _, _, err := b.submit(context.Background(), rowsOf(d, 0, 1)); err == nil {
		t.Error("submit after Close should refuse")
	}
}
