package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient wires a client to the handler with instant sleeps and a
// controllable clock, returning the client and a pointer to the slice
// of sleeps the retry loop asked for.
func newTestClient(t *testing.T, cfg Config, h http.Handler) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cfg.BaseURL = ts.URL
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sleeps := &[]time.Duration{}
	c.sleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	c.randf = func() float64 { return 1.0 } // deterministic: full window
	return c, sleeps
}

func okScore(w http.ResponseWriter) {
	json.NewEncoder(w).Encode(ScoreResult{Model: "m", Version: 1, Predictions: []float64{1.5}})
}

func TestScoreSuccess(t *testing.T) {
	c, _ := newTestClient(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/score" || r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		var req struct {
			Model   string      `json:"model"`
			Samples [][]float64 `json:"samples"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Model != "m" || len(req.Samples) != 2 {
			t.Errorf("bad request body: %v %+v", err, req)
		}
		okScore(w)
	}))
	res, err := c.Score(context.Background(), "m", [][]float64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || len(res.Predictions) != 1 || res.Predictions[0] != 1.5 {
		t.Errorf("result %+v", res)
	}
}

// Transient server failures are retried with full-jitter exponential
// backoff; the call succeeds once the server recovers. That includes a
// 500 on POST /v1/score: scoring has no side effect, so a repeat costs
// only time.
func TestRetriesTransientFailures(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusInternalServerError} {
		var calls atomic.Int32
		c, sleeps := newTestClient(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				w.WriteHeader(status)
				json.NewEncoder(w).Encode(map[string]string{"error": "try again"})
				return
			}
			okScore(w)
		}))
		c.baseBackoff, c.maxBackoff = 10*time.Millisecond, time.Second
		if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); err != nil {
			t.Fatalf("%d: %v", status, err)
		}
		if calls.Load() != 3 {
			t.Errorf("%d: calls = %d, want 3", status, calls.Load())
		}
		// randf pinned to 1.0: each sleep is the full exponential window.
		want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
		if len(*sleeps) != 2 || (*sleeps)[0] != want[0] || (*sleeps)[1] != want[1] {
			t.Errorf("%d: sleeps = %v, want %v", status, *sleeps, want)
		}
	}
}

// The backoff window is uniform in [0, cap]: the jitter fraction scales
// the window and the window is capped by maxBackoff.
func TestBackoffFullJitterAndCap(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	c.baseBackoff, c.maxBackoff = 100*time.Millisecond, time.Second
	c.randf = func() float64 { return 0.5 }
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 50 * time.Millisecond},   // 0.5 · 100ms
		{1, 100 * time.Millisecond},  // 0.5 · 200ms
		{3, 400 * time.Millisecond},  // 0.5 · 800ms
		{4, 500 * time.Millisecond},  // capped: 0.5 · 1s
		{40, 500 * time.Millisecond}, // shift overflow also hits the cap
	} {
		if got := c.backoff(tc.attempt); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

// Client mistakes (4xx) are not retried: the server's answer will not
// change, so a second attempt only adds load. That includes 413 for a
// body over the server's cap.
func TestNoRetryOnClientError(t *testing.T) {
	for _, status := range []int{http.StatusNotFound, http.StatusRequestEntityTooLarge} {
		var calls atomic.Int32
		c, _ := newTestClient(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": "model \"m\" refused"})
		}))
		_, err := c.Score(context.Background(), "m", [][]float64{{1}})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("err = %v, want %d APIError", err, status)
		}
		if apiErr.Message != "model \"m\" refused" {
			t.Errorf("%d: message %q", status, apiErr.Message)
		}
		if calls.Load() != 1 {
			t.Errorf("%d: calls = %d, want 1 (no retry on 4xx)", status, calls.Load())
		}
	}
}

// A Retry-After header overrides the jittered backoff: the server's
// recovery horizon round-trips from the 429 into the retry sleep.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	c, sleeps := newTestClient(t, Config{},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "2")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
				return
			}
			okScore(w)
		}))
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want exactly the server's 2s hint", *sleeps)
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"-3", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The retry budget bounds amplification: once the bucket is dry,
// retryable failures return immediately with ErrBudgetExhausted instead
// of hammering a struggling server.
func TestRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, Config{MaxRetries: 10},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
	// Five failed attempts in all stay below the breaker's 32-outcome
	// window, so only the budget can stop the retries.
	c.budget.init(3)
	_, err := c.Score(context.Background(), "m", [][]float64{{1}})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// First attempt + 3 budgeted retries.
	if calls.Load() != 4 {
		t.Errorf("calls = %d, want 4", calls.Load())
	}
	// A second call has no budget left at all: one attempt, no retries.
	calls.Store(0)
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("dry-budget calls = %d, want 1", calls.Load())
	}
}

// The breaker opens once the sliding window's error rate crosses the
// threshold, rejects instantly while open, admits one probe after the
// cooldown, and closes again when the probe succeeds.
func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int32
	c, _ := newTestClient(t, Config{MaxRetries: -1}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		okScore(w)
	}))
	c.breaker.init(4, 0.5, time.Second)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return clock }

	// Fill the window with failures: the 4th outcome trips the breaker.
	for i := 0; i < 4; i++ {
		var apiErr *APIError
		if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); !errors.As(err, &apiErr) {
			t.Fatalf("attempt %d: err = %v, want APIError", i, err)
		}
	}
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker let a call through: %v", err)
	}
	if calls.Load() != 4 {
		t.Errorf("server saw %d calls, want 4 (breaker short-circuits)", calls.Load())
	}

	// Cooldown passes; the server has recovered. One probe is admitted,
	// succeeds, and the breaker closes for everyone.
	failing.Store(false)
	clock = clock.Add(2 * time.Second)
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}

	// And a failing probe re-opens it.
	failing.Store(true)
	for i := 0; i < 4; i++ {
		c.Score(context.Background(), "m", [][]float64{{1}})
	}
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("breaker did not re-open: %v", err)
	}
	clock = clock.Add(2 * time.Second)
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown elapsed but probe was rejected")
	}
	// The probe failed (server still down): straight back to open, no
	// second probe until another cooldown.
	if _, err := c.Score(context.Background(), "m", [][]float64{{1}}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("failed probe did not re-open the breaker: %v", err)
	}
}

// A context deadline is stamped onto the request as X-Deadline-Ms so
// the server can shed work that will miss it.
func TestDeadlineHeaderStamped(t *testing.T) {
	var gotMs atomic.Int64
	c, _ := newTestClient(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(DeadlineHeader); h != "" {
			ms, _ := strconv.ParseInt(h, 10, 64)
			gotMs.Store(ms)
		}
		okScore(w)
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Score(ctx, "m", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if ms := gotMs.Load(); ms <= 0 || ms > 5000 {
		t.Errorf("deadline header carried %dms, want (0, 5000]", ms)
	}
}

// The retry loop never sleeps past the context deadline: when the next
// backoff would overrun it, the last real failure surfaces immediately.
func TestRetrySleepBoundedByContextDeadline(t *testing.T) {
	c, sleeps := newTestClient(t, Config{},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
	c.baseBackoff, c.maxBackoff = time.Minute, time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Score(ctx, "m", [][]float64{{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the 503 APIError", err)
	}
	if len(*sleeps) != 0 {
		t.Errorf("slept %v despite a 2s deadline and 1m backoff", *sleeps)
	}
}

func TestModelLifecycleAndHealth(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Health{Status: "ok", Models: 1})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"models": []ModelInfo{{Name: "cpu2006", Version: 3, SHA256: "ab"}}})
	})
	mux.HandleFunc("GET /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ModelInfo{Name: r.PathValue("name"), Version: 3})
	})
	mux.HandleFunc("PUT /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ModelInfo{Name: r.PathValue("name"), Version: 4})
	})
	mux.HandleFunc("DELETE /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"removed": r.PathValue("name")})
	})
	c, _ := newTestClient(t, Config{}, mux)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v", h, err)
	}
	if err := c.WaitHealthy(ctx, time.Second); err != nil {
		t.Fatalf("WaitHealthy: %v", err)
	}
	models, err := c.ListModels(ctx)
	if err != nil || len(models) != 1 || models[0].SHA256 != "ab" {
		t.Fatalf("ListModels = %+v, %v", models, err)
	}
	m, err := c.GetModel(ctx, "cpu2006")
	if err != nil || m.Version != 3 {
		t.Fatalf("GetModel = %+v, %v", m, err)
	}
	m, err = c.PutModel(ctx, "cpu2006", []byte("artifact-bytes"))
	if err != nil || m.Version != 4 {
		t.Fatalf("PutModel = %+v, %v", m, err)
	}
	if err := c.DeleteModel(ctx, "cpu2006"); err != nil {
		t.Fatalf("DeleteModel: %v", err)
	}
}

// WaitHealthy keeps polling through failures until the daemon answers,
// and reports the last failure when it never does.
func TestWaitHealthyPollsUntilUp(t *testing.T) {
	var calls atomic.Int32
	var down atomic.Bool
	c, _ := newTestClient(t, Config{MaxRetries: -1}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() || calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Health{Status: "ok"})
	}))
	if err := c.WaitHealthy(context.Background(), 10*time.Second); err != nil {
		t.Fatalf("WaitHealthy: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("polls = %d, want 3", calls.Load())
	}

	// Against a permanently down daemon the timeout fires with the cause.
	down.Store(true)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
	err := c.WaitHealthy(context.Background(), 3*time.Second)
	if err == nil {
		t.Fatal("WaitHealthy succeeded against a down daemon")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Errorf("timeout error does not carry the last failure: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://x" {
		t.Errorf("base = %q, want trailing slash trimmed", c.base)
	}
}

func TestAPIErrorMessageFallback(t *testing.T) {
	c, _ := newTestClient(t, Config{MaxRetries: -1}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "plain text proxy error")
	}))
	_, err := c.Score(context.Background(), "m", [][]float64{{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Message != "plain text proxy error" {
		t.Fatalf("err = %v, want plain-text body carried through", err)
	}
}
