// Package client is the typed Go client for the specchard scoring
// daemon — the one place in the tree that knows how to talk to the HTTP
// surface and how to fail well while doing it.
//
// Every call goes through one retry loop with three safety layers. Only
// the retry count is configurable; the layers' other parameters are the
// package constants below:
//
//   - Capped exponential backoff with full jitter. Retryable failures
//     (transport errors, 429, 500/502/503/504) sleep a uniformly random
//     slice of an exponentially growing window before the next attempt,
//     so a thundering herd decorrelates instead of re-synchronizing. A
//     Retry-After header from the server overrides the jittered wait —
//     the server knows its own recovery horizon better than the client.
//   - A retry budget. Retries spend from a token bucket that only
//     successful requests refill; when the bucket is dry the client fails
//     fast instead of multiplying load on a struggling server. The
//     budget bounds the retry amplification factor across the whole
//     client, not per call.
//   - An error-rate circuit breaker. A sliding window of recent attempt
//     outcomes opens the breaker when the error rate crosses
//     breakerThreshold; while open, calls fail immediately with
//     ErrBreakerOpen. After breakerCooldown one probe request is let
//     through (half-open): success closes the breaker, failure re-opens
//     it. The breaker turns a dead server into cheap local errors.
//
// Deadlines propagate: when the call's context carries one, the request
// is stamped with DeadlineHeader (remaining budget in milliseconds) so
// the server can shed work that will miss it anyway — see the serve
// package's batcher. The retry loop also refuses to sleep past the
// context deadline.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// DeadlineHeader carries the request's remaining time budget in integer
// milliseconds. The serve package reads it (the constant lives here
// because serve imports client, not the reverse).
const DeadlineHeader = "X-Deadline-Ms"

// ErrBreakerOpen fails a call immediately because the circuit breaker
// judged the server unhealthy. Retrying right away is pointless; back
// off at the caller's cadence or wait for the cooldown probe.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrBudgetExhausted marks a retryable failure that could not be
// retried because the retry budget was dry. The underlying failure is
// wrapped alongside it.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// APIError is a non-2xx response from the daemon, carrying the decoded
// error body and any Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// The retry layers' parameters. Full-jitter backoff sleeps uniformly in
// [0, min(maxBackoff, baseBackoff·2^attempt)]. Each retry spends one of
// retryBudget tokens and each success refills half a token. The breaker
// judges only a full window of breakerWindow attempt outcomes, so at
// least that many attempts must complete before it can open.
const (
	baseBackoff      = 50 * time.Millisecond
	maxBackoff       = 2 * time.Second
	retryBudget      = 16
	breakerWindow    = 32
	breakerThreshold = 0.5
	breakerCooldown  = time.Second
)

// Config parameterizes a Client.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8377".
	// Required.
	BaseURL string

	// MaxRetries caps retries after the first attempt (default 3;
	// -1 disables retries entirely).
	MaxRetries int
}

// Client is a specchard API client. Safe for concurrent use; the retry
// budget and breaker are shared across all calls, which is the point.
type Client struct {
	base       string
	maxRetries int

	// Test seams: real clocks, sleeps and backoff windows in production,
	// controllable in tests. Never zero after New.
	sleep       func(time.Duration)
	now         func() time.Time
	randf       func() float64
	baseBackoff time.Duration
	maxBackoff  time.Duration

	breaker breaker
	budget  budget
}

// New builds a Client over the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	c := &Client{
		base:        strings.TrimRight(cfg.BaseURL, "/"),
		maxRetries:  cfg.MaxRetries,
		sleep:       time.Sleep,
		now:         time.Now,
		randf:       rand.Float64,
		baseBackoff: baseBackoff,
		maxBackoff:  maxBackoff,
	}
	if c.maxRetries == 0 {
		c.maxRetries = 3
	}
	c.breaker.init(breakerWindow, breakerThreshold, breakerCooldown)
	c.budget.init(retryBudget)
	return c, nil
}

// ScoreResult is the success body of POST /v1/score.
type ScoreResult struct {
	Model       string    `json:"model"`
	Version     int       `json:"version"`
	Predictions []float64 `json:"predictions"`
}

// ModelInfo mirrors the daemon's model list surface.
type ModelInfo struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Attrs    int    `json:"attrs"`
	Leaves   int    `json:"leaves"`
	Nodes    int    `json:"nodes"`
	Smoothed bool   `json:"smoothed"`
	Source   string `json:"source"`
	SHA256   string `json:"sha256,omitempty"`
	LoadedAt string `json:"loaded_at"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"`
	Models        int     `json:"models"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Score scores the samples against the named model.
func (c *Client) Score(ctx context.Context, model string, samples [][]float64) (*ScoreResult, error) {
	body, err := json.Marshal(map[string]any{"model": model, "samples": samples})
	if err != nil {
		return nil, err
	}
	var out ScoreResult
	if err := c.do(ctx, http.MethodPost, "/v1/score", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PutModel loads (or hot-swaps) a model from a serialized compiled-tree
// artifact. The artifact is a byte slice, not a reader, so retries can
// resend it.
func (c *Client) PutModel(ctx context.Context, name string, artifact []byte) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodPut, "/v1/models/"+name, artifact, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListModels returns the loaded models, sorted by name.
func (c *Client) ListModels(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// GetModel returns one model's info.
func (c *Client) GetModel(ctx context.Context, name string) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+name, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteModel unloads a model.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/models/"+name, nil, nil)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitHealthy polls /healthz until it answers ok, the timeout elapses,
// or ctx is done, 50ms apart. Each poll is an ordinary call: it retries,
// spends the retry budget and feeds the breaker like any other, so a
// long wait on a dead daemon can open the breaker.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := c.now().Add(timeout)
	var lastErr error
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if err != nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !c.now().Before(deadline) {
			return fmt.Errorf("client: daemon not healthy after %v: %w", timeout, lastErr)
		}
		c.sleep(50 * time.Millisecond)
	}
}

// do is the one retry loop every call funnels through.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.breaker.allow(c.now()); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return err
		}
		err := c.attempt(ctx, method, path, body, out)
		c.breaker.record(err == nil, c.now())
		if err == nil {
			c.budget.refill()
			return nil
		}
		lastErr = err
		if !retryable(err) || c.maxRetries < 0 || attempt >= c.maxRetries || ctx.Err() != nil {
			return err
		}
		if !c.budget.spend() {
			return fmt.Errorf("%w: %w", ErrBudgetExhausted, err)
		}
		d := c.backoff(attempt)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
			d = apiErr.RetryAfter
		}
		if dl, ok := ctx.Deadline(); ok && c.now().Add(d).After(dl) {
			return err
		}
		c.sleep(d)
	}
}

// backoff returns a full-jitter wait: uniform in [0, cap] where the cap
// doubles per attempt up to maxBackoff.
func (c *Client) backoff(attempt int) time.Duration {
	window := c.baseBackoff << uint(attempt)
	if window <= 0 || window > c.maxBackoff {
		window = c.maxBackoff
	}
	return time.Duration(c.randf() * float64(window))
}

// attempt performs one HTTP round trip and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now())}
		var eb struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			apiErr.Message = eb.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return apiErr
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryable reports whether the failure is worth another attempt:
// transport errors and the "try again later" statuses (429 and
// 500/502/503/504) are; other client mistakes (4xx) and context expiry
// are not. The method does not matter: every call is a read, an
// idempotent PUT/DELETE, or a POST /v1/score with no side effect, so a
// repeat costs only time.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusBadGateway,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true // transport-level failure
}

// parseRetryAfter handles both RFC 9110 forms: delta-seconds and an
// HTTP-date. Unparseable or absent values yield zero.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
