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

// Served scores must match the offline batch path bit-for-bit (well
// inside the 1e-9 acceptance tolerance): the daemon is a transport
// around the compiled batch scorer, not a different scorer.
func TestServedScoresMatchPredictDataset(t *testing.T) {
	f := newFixture(t, Config{})
	want, err := f.tree.PredictDatasetCheckedContext(context.Background(), f.data)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 16, 64, 200} {
		for lo := 0; lo < 400; lo += batch {
			hi := min(lo+batch, 400)
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
				w := want[lo+i]
				scale := math.Max(1, math.Max(math.Abs(got), math.Abs(w)))
				if math.Abs(got-w) > 1e-9*scale {
					t.Fatalf("sample %d: served %v, offline batch %v", lo+i, got, w)
				}
			}
		}
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

// Admission control: with a tiny pending budget and a dispatcher that
// cannot keep up, excess requests are rejected with 429 immediately —
// and the budget is released afterwards so the model recovers.
func TestAdmissionControl(t *testing.T) {
	// MaxBatch far above MaxPending means the dispatcher lingers the full
	// BatchWait holding admitted samples, so concurrent 4-sample requests
	// pile pending past the budget of 8 and get shed, while each flush
	// releases the budget and lets later requests through.
	f := newFixture(t, Config{MaxPending: 8, MaxBatch: 1 << 20, BatchWait: 60 * time.Millisecond})
	var rejected, accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				status, _, _ := f.score(t, "cpu2006", rowsOf(f.data, 0, 4))
				switch status {
				case http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("unexpected status %d", status)
				}
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Error("no request was shed at 12×4 samples against a budget of 8")
	}
	if accepted.Load() == 0 {
		t.Error("every request was shed; admission is not releasing budget")
	}
	// Recovery: the full budget is back.
	if status, _, msg := f.score(t, "cpu2006", rowsOf(f.data, 0, 8)); status != http.StatusOK {
		t.Errorf("after the storm a full-budget request failed: %d (%s)", status, msg)
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
	srv, err := New(Config{Registry: reg, BatchWait: 30 * time.Millisecond, MaxBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.batcherFor("m")
	if err != nil {
		t.Fatal(err)
	}
	// Park a job in the queue: with a huge MaxBatch and a long linger the
	// dispatcher is still gathering when Close lands, so the drain path
	// must finish the batch.
	type result struct {
		out []float64
		err error
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			out, _, err := b.submit(context.Background(), rowsOf(d, i*4, i*4+4))
			results <- result{out, err}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the submissions queue
	srv.Close()
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
