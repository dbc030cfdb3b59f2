package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/registry"
	"specchar/internal/serve"
)

// The serving traffic mix. Rates stay well below the ≈800 req/s that two
// connections reach against the 2 ms batch linger, so at these rates the
// generator is not the bottleneck and the queue does not grow.
const (
	modelName      = "cpu2006"
	conns          = 2           // client connections: one per CPU of the 2-vCPU reference host
	interactiveRPS = 300         // 1-sample requests per second
	bulkRPS        = 20          // 512-sample requests per second
	bulkRows       = 512         // at/above serve's ColumnarMin and MaxBatch: the fused-columnar route
	putEvery       = time.Second // one durable hot-swap PUT per second
	p99LimitMS     = 20          // rate-ladder latency limit
)

// roundLen is the length of one open-loop schedule (tests shorten it).
// Short rounds let the quiet-round selection (see quietest) leave out a
// burst of stolen time without leaving out much else.
var roundLen = time.Second

// ladderRPS are the interactive-only rates of the traced rate ladder,
// all below the linger-bound capacity of two connections.
var ladderRPS = []int{150, 300, 450, 600, 750}

type reqKind int

const (
	interactive reqKind = iota
	bulk
	put
)

func (k reqKind) String() string { return [...]string{"interactive", "bulk", "put"}[k] }

// request is one scheduled request: its kind, when it is due relative
// to the start of the schedule, and which pooled body it sends.
type request struct {
	kind reqKind
	due  time.Duration
	body int
}

// pool holds pre-encoded request bodies and the predictions each must
// get back from tree A (odd model versions) and tree B (even versions).
type pool struct {
	bodies [2][][]byte       // by kind: interactive, bulk
	want   [2][2][][]float64 // by kind, then tree
	encUS  [2][]float64      // client-side encode time of each body
}

// newPool draws request rows from d with the seed and scores them
// directly through both compiled trees.
func newPool(d *dataset.Dataset, trees [2]*mtree.CompiledTree, seed int64) (*pool, error) {
	rng := dataset.NewRNG(uint64(seed) ^ 0x5EB7E)
	p := &pool{}
	for kind, shape := range [2]struct{ n, rows int }{{1024, 1}, {8, bulkRows}} {
		for i := 0; i < shape.n; i++ {
			sub := &dataset.Dataset{Schema: d.Schema}
			rows := make([][]float64, shape.rows)
			for j := range rows {
				smp := d.Samples[rng.Intn(d.Len())]
				rows[j] = smp.X
				sub.Samples = append(sub.Samples, dataset.Sample{X: smp.X})
			}
			t0 := time.Now()
			body, err := json.Marshal(map[string]any{"model": modelName, "samples": rows})
			if err != nil {
				return nil, err
			}
			p.encUS[kind] = append(p.encUS[kind], float64(time.Since(t0).Nanoseconds())/1e3)
			p.bodies[kind] = append(p.bodies[kind], body)
			for t, tree := range trees {
				preds, err := tree.PredictDatasetChecked(sub)
				if err != nil {
					return nil, err
				}
				p.want[kind][t] = append(p.want[kind][t], preds)
			}
		}
	}
	return p, nil
}

// schedule lays out one open-loop round: interactive and bulk requests
// at fixed rates and one PUT per putEvery, phase-shifted by the seed.
// Bulk requests and PUTs fall due a half and a quarter interactive gap
// after an interactive request: three requests due at one instant on two
// connections would queue in the client, not in the server.
func schedule(length time.Duration, iRPS, bRPS int, puts bool, seed int64) []request {
	var out []request
	phase := time.Duration(uint64(seed)%997) * time.Microsecond
	igap := time.Second / time.Duration(iRPS)
	add := func(kind reqKind, rps, n int, offset time.Duration) {
		if rps <= 0 {
			return
		}
		gap := time.Second / time.Duration(rps)
		for i, t := 0, (phase+offset)%gap; t < length; i, t = i+1, t+gap {
			out = append(out, request{kind: kind, due: t, body: (i*7 + int(uint64(seed)%13)) % n})
		}
	}
	add(interactive, iRPS, 1024, 0)
	add(bulk, bRPS, 8, igap/2)
	if puts {
		n := max(1, int(length/putEvery))
		for k := 0; k < n; k++ {
			due := length*time.Duration(2*k+1)/time.Duration(2*n) + phase%igap + igap/4
			out = append(out, request{kind: put, due: due})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// server is an in-process serve.Server on a loopback listener, backed by
// a durable registry in a temporary directory under the work dir.
type server struct {
	url       string
	hs        *http.Server
	srv       *serve.Server
	reg       *registry.Registry
	dir       string
	served    chan error
	client    *http.Client
	artifacts [2][]byte
	puts      int // PUTs sent so far; only the dispatcher touches it
}

// treeOf maps a model version to the tree that serves it: version 1 is
// tree A (loaded at start-up) and every PUT alternates B, A, B, ...
func treeOf(version int) int { return 1 - version%2 }

func startServer(workDir string, trees [2]*mtree.CompiledTree, rec *obs.Recorder) (*server, error) {
	s := &server{served: make(chan error, 1)}
	for i, t := range trees {
		var b bytes.Buffer
		if _, err := t.WriteTo(&b); err != nil {
			return nil, err
		}
		s.artifacts[i] = b.Bytes()
	}
	dir, err := os.MkdirTemp(workDir, "registry-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	reg, _, err := registry.Open(dir, registry.OpenOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.reg = reg
	if _, err := reg.Load(modelName, trees[0], "perfbench"); err != nil {
		s.close()
		return nil, err
	}
	if s.srv, err = serve.New(serve.Config{Registry: reg, Recorder: rec}); err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return s, nil
}

// close shuts the HTTP server down, waits for it, drains the batchers
// and removes the registry directory.
func (s *server) close() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.reg != nil {
		s.reg.Close()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// counters reads the named counters from the server's /metrics.
func (s *server) counters(names ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", f[0], err)
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// outcome is what happened to one scheduled request.
type outcome struct {
	kind          reqKind
	late, latency time.Duration // from the request's due time
	jsonUS        float64       // client-side encode + decode
	err           error         // transport error, bad status or wrong output
}

// traffic summarizes one replayed schedule.
type traffic struct {
	outcomes []outcome
	wall     time.Duration // schedule start to the last response
	stolen   float64       // CPU share the hypervisor stole meanwhile
}

// replay sends the schedule open-loop over at most conns connections:
// each request is handed to a free connection once due, and its latency
// and lateness are timed from the due time, so a stall shows up in every
// request queued behind it. Responses are checked bit-for-bit against
// direct CompiledTree scoring of the same rows.
//
// The round runs with GOMAXPROCS 1. Client and server share this process,
// and a request passes through several goroutines on its way; spread over
// two virtual CPUs that sit idle between requests, each hand-off can wait
// for the hypervisor to wake a CPU, and bulk latency then measured the
// host's load more than the server.
func (s *server) replay(ctx context.Context, sched []request, p *pool) *traffic {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	outs := make([]outcome, len(sched))
	work := make(chan int)
	runtime.GC() // start every round from the same collector state
	m := startSteal()
	start := m.start
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				outs[i] = s.send(ctx, start, sched[i], p)
			}
		}()
	}
	for i := range sched {
		if d := time.Until(start.Add(sched[i].due)); d > 0 {
			time.Sleep(d)
		}
		if sched[i].kind == put {
			s.puts++
			sched[i].body = s.puts
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return &traffic{outcomes: outs, wall: time.Since(start), stolen: m.share()}
}

func (s *server) send(ctx context.Context, start time.Time, rq request, p *pool) outcome {
	due := start.Add(rq.due)
	o := outcome{kind: rq.kind, late: time.Since(due)}
	method, path, body := http.MethodPost, "/v1/score", []byte(nil)
	if rq.kind == put {
		method, path, body = http.MethodPut, "/v1/models/"+modelName, s.artifacts[treeOf(rq.body+1)]
	} else {
		body = p.bodies[rq.kind][rq.body]
		o.jsonUS = p.encUS[rq.kind][rq.body]
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	resp, err := s.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(due)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	t0 := time.Now()
	var got struct {
		Version     int       `json:"version"`
		Predictions []float64 `json:"predictions"`
	}
	err = json.Unmarshal(data, &got)
	o.jsonUS += float64(time.Since(t0).Nanoseconds()) / 1e3
	switch {
	case err != nil:
		o.err = fmt.Errorf("decoding %s response: %w", rq.kind, err)
	case rq.kind == put:
		if got.Version != rq.body+1 {
			o.err = fmt.Errorf("PUT %d published version %d, want %d", rq.body, got.Version, rq.body+1)
		}
	default:
		o.err = sameBits(got.Predictions, p.want[rq.kind][treeOf(got.Version)][rq.body])
	}
	return o
}

// sameBits reports whether a served score vector is bit-identical to the
// direct scoring of the same rows.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("prediction %d = %v, direct scoring gives %v", i, got[i], want[i])
		}
	}
	return nil
}

// record counts every request of the traffic as one checked operation.
func (r *run) record(t *traffic) {
	for _, o := range t.outcomes {
		r.op(o.kind.String()+" request", o.err)
	}
}

// latencies returns the latencies (ms) of the requests of one kind.
func (t *traffic) latencies(kind reqKind) []float64 {
	var out []float64
	for _, o := range t.outcomes {
		if o.kind == kind && o.err == nil {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

func (t *traffic) lateness() []float64 {
	out := make([]float64, len(t.outcomes))
	for i, o := range t.outcomes {
		out[i] = ms(o.late)
	}
	return out
}

func (t *traffic) failures() int {
	n := 0
	for _, o := range t.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}
