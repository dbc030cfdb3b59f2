// Package serve is the HTTP layer of the scoring daemon: a JSON score
// API over the model registry, with per-model request batching, bounded
// admission queues, and the operational surface a long-lived process
// needs (/healthz, /metrics, model load/swap/list).
//
// The request path is: handler validates the request against the current
// model (name resolves, sample widths match), then submits the sample
// block to the model's batcher. The batcher owns a bounded queue:
// admission is by queued sample count (an overloaded model rejects
// instantly with 429 instead of building an unbounded backlog), and a
// dispatcher goroutine coalesces queued requests into one batch — up to
// MaxBatch samples, lingering at most BatchWait for stragglers — scored
// through one compiled batch call: PredictDatasetCheckedContext, or
// PredictColumnsCheckedContext once a batch holds columnarMin samples.
// Batching amortizes the per-call overhead across requests exactly like
// the offline pipeline amortizes it across rows.
//
// Requests carry deadlines: an explicit one via the client package's
// X-Deadline-Ms header, or the server-imposed Config.DefaultTimeout.
// The deadline travels with the queued job — the batcher flushes early
// rather than linger a nearly-expired batch, and sheds work that
// expired while queued before spending scoring time on it (408). A
// client that disconnects instead gets its result dropped: there is no
// one left to answer, so the handler logs and moves on.
//
// Models are resolved at flush time, not submit time, so a hot-swap
// through the registry (PUT /v1/models/{name}) takes effect on the next
// batch with zero failed requests: in-flight batches keep the tree they
// resolved, queued work scores on the new version. The compiled trees
// themselves are immutable (per-call worker bounds come from
// CompiledTree.WithWorkers views), so one tree serves any number of
// concurrent batches.
//
// See DESIGN.md §11 for the architecture and cmd/specchard for the
// daemon wrapping this package.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"specchar/internal/client"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/registry"
)

// Config parameterizes a Server. The zero value of every knob means
// "use the default" noted on the field.
type Config struct {
	// Registry is the model store; required.
	Registry *registry.Registry

	// Recorder receives spans and metrics; nil disables observability
	// (the /metrics endpoint then serves an empty body).
	Recorder *obs.Recorder

	// MaxBatch is the most samples one scoring batch may hold
	// (default 64).
	MaxBatch int

	// BatchWait is how long a dispatcher lingers for more requests once
	// it holds a partial batch (default 2ms). Zero means the default;
	// use Server-side batching off by setting MaxBatch to 1.
	BatchWait time.Duration

	// MaxPending caps queued samples per model — the admission bound.
	// Requests beyond it are rejected with 429 (default 4096).
	MaxPending int

	// Workers bounds the goroutines of one batch scoring call
	// (default 1: serving parallelism comes from concurrent batches, and
	// batches of MaxBatch samples are below the pool's parallel
	// threshold anyway).
	Workers int

	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64

	// DefaultTimeout bounds scoring requests that carry no explicit
	// deadline header. Zero means no server-imposed deadline.
	DefaultTimeout time.Duration

	// RetryAfter is the backoff hint stamped on 429/503 responses
	// (default 1s). Resilient clients honor it over their own jitter.
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the scoring service: handlers plus the per-model batchers.
// Create with New, expose with Handler, and Close after the HTTP server
// has shut down (Close drains queued work).
type Server struct {
	cfg   Config
	reg   *registry.Registry
	rec   *obs.Recorder
	start time.Time

	// baseCtx carries the recorder into batch scoring; canceled by Close
	// after the batchers have drained.
	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	batchers map[string]*batcher
	closed   bool
}

// New builds a Server over the registry in cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("serve: Config.Registry is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(obs.WithRecorder(context.Background(), cfg.Recorder))
	return &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		rec:      cfg.Recorder,
		start:    time.Now(),
		baseCtx:  ctx,
		stop:     cancel,
		batchers: make(map[string]*batcher),
	}, nil
}

// Handler returns the route table. Safe to call once and share.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/models", s.handleModelList)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModelGet)
	mux.HandleFunc("PUT /v1/models/{name}", s.handleModelPut)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleModelDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Close drains every batcher (queued requests are scored, not dropped)
// and then releases the scoring context. Call after http.Server.Shutdown
// has returned, so no handler is still submitting.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	bs := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	for _, b := range bs {
		b.close()
	}
	s.stop()
}

// batcherFor returns (creating on first use) the model's batcher.
func (s *Server) batcherFor(model string) (*batcher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrDraining
	}
	b := s.batchers[model]
	if b == nil {
		b = newBatcher(s, model)
		s.batchers[model] = b
	}
	return b, nil
}

// scoreRequest is the body of POST /v1/score.
type scoreRequest struct {
	// Model names the registry entry to score against.
	Model string `json:"model"`
	// Samples are predictor vectors, each exactly schema-width long.
	Samples [][]float64 `json:"samples"`
}

// scoreResponse is the success body of POST /v1/score.
type scoreResponse struct {
	Model string `json:"model"`
	// Version is the registry version that actually scored the batch —
	// under a hot-swap this may be newer than the version visible when
	// the request was admitted.
	Version     int       `json:"version"`
	Predictions []float64 `json:"predictions"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.count("specchard_requests_total")
	var req scoreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	// The same strictness ReadJSON applies to artifacts: a request with
	// trailing bytes after the document is malformed, not sloppy.
	if tok, err := dec.Token(); err != io.EOF {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("trailing data after request body (token %v)", tok))
		return
	}
	if req.Model == "" {
		s.fail(w, http.StatusBadRequest, "missing model name")
		return
	}
	if len(req.Samples) == 0 {
		s.fail(w, http.StatusBadRequest, "no samples")
		return
	}
	m, ok := s.reg.Get(req.Model)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", req.Model))
		return
	}
	width := m.Tree.NumAttrs()
	for i, row := range req.Samples {
		if len(row) != width {
			s.fail(w, http.StatusBadRequest,
				fmt.Sprintf("sample %d has %d attributes, model %q expects %d", i, len(row), req.Model, width))
			return
		}
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()
	b, err := s.batcherFor(req.Model)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	out, version, err := b.submit(ctx, req.Samples)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	s.rec.Counter("specchard_samples_scored_total").Add(int64(len(req.Samples)))
	s.writeJSON(w, http.StatusOK, scoreResponse{Model: req.Model, Version: version, Predictions: out})
}

// requestContext derives the scoring context: an explicit client
// deadline from the X-Deadline-Ms header wins, otherwise the
// server-side default (if any) applies. The error is a client mistake
// (malformed header).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	if h := r.Header.Get(client.DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid %s header %q: want positive integer milliseconds", client.DeadlineHeader, h)
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		return ctx, cancel, nil
	}
	if s.cfg.DefaultTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// modelInfo is one entry of the admin list surface.
type modelInfo struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Attrs    int    `json:"attrs"`
	Leaves   int    `json:"leaves"`
	Nodes    int    `json:"nodes"`
	Smoothed bool   `json:"smoothed"`
	Source   string `json:"source"`
	// SHA256 is the artifact digest for models backed by a durable state
	// dir; empty for in-memory loads.
	SHA256   string `json:"sha256,omitempty"`
	LoadedAt string `json:"loaded_at"`
}

func infoOf(m *registry.Model) modelInfo {
	return modelInfo{
		Name:     m.Name,
		Version:  m.Version,
		Attrs:    m.Tree.NumAttrs(),
		Leaves:   m.Tree.NumLeaves(),
		Nodes:    m.Tree.NumNodes(),
		Smoothed: m.Tree.Smoothed(),
		Source:   m.Source,
		SHA256:   m.SHA256,
		LoadedAt: m.LoadedAt.UTC().Format(time.RFC3339Nano),
	}
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	s.count("specchard_requests_total")
	models := s.reg.List()
	infos := make([]modelInfo, len(models))
	for i, m := range models {
		infos[i] = infoOf(m)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	s.count("specchard_requests_total")
	m, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", r.PathValue("name")))
		return
	}
	s.writeJSON(w, http.StatusOK, infoOf(m))
}

// handleModelPut loads (or hot-swaps) a model from a compiled-tree
// artifact in the request body. The swap is atomic: scoring never sees a
// partial model, and in-flight batches finish on the version they
// resolved.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	s.count("specchard_requests_total")
	name := r.PathValue("name")
	tree, err := mtree.ReadCompiled(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, mtree.ErrArtifact) {
			status = http.StatusInternalServerError
		}
		s.fail(w, status, fmt.Sprintf("loading artifact: %v", err))
		return
	}
	m, err := s.reg.Load(name, tree, "upload")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	s.count("specchard_model_swaps_total")
	s.writeJSON(w, http.StatusOK, infoOf(m))
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	s.count("specchard_requests_total")
	name := r.PathValue("name")
	ok, err := s.reg.Remove(name)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Sprintf("removing %q: %v", name, err))
		return
	}
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", name))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.reg.Len(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but note it.
		s.count("specchard_request_errors_total")
	}
}

// count bumps a volatile counter (request counts are load-dependent, so
// they stay out of deterministic manifests). Nil-safe via the recorder.
func (s *Server) count(name string) { s.rec.VolatileCounter(name).Add(1) }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.count("specchard_request_errors_total")
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, msg string) {
	s.count("specchard_request_errors_total")
	s.writeJSON(w, status, errorResponse{Error: msg})
}

// failErr maps submission errors to statuses: admission rejection is
// 429 and draining is 503 — both stamped with a Retry-After hint — a
// model unloaded or swapped incompatibly mid-flight is 409, and a
// missed deadline is 408. A canceled request context means the client
// disconnected: nobody is listening, so writing a status would only
// mislabel the outcome in logs — count it and drop the response
// instead. (Cancellation with the client still connected can only come
// from server-side plumbing; that is a 503, retry-worthy.)
func (s *Server) failErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.retryAfter(w)
		s.fail(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		s.retryAfter(w)
		s.fail(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrModelGone):
		s.fail(w, http.StatusConflict, err.Error())
	case errors.Is(err, mtree.ErrSampleWidth):
		s.fail(w, http.StatusConflict, fmt.Sprintf("model swapped to an incompatible schema mid-request: %v", err))
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusRequestTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			s.count("specchard_client_gone_total")
			return
		}
		s.retryAfter(w)
		s.fail(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}

// retryAfter stamps the configured backoff hint, rounded up to whole
// seconds as the header requires.
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter+time.Second-1) / int(time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
