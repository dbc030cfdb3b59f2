// Command specchard is the characterization scoring daemon: a long-lived
// HTTP service that scores samples against compiled M5' model trees held
// in a versioned in-memory registry. Models load at startup from
// artifacts (-model) or by training a suite in-process (-train), and
// hot-swap at runtime through PUT /v1/models/{name} with zero failed
// requests.
//
// Usage:
//
//	specchard [-addr host:port] [-model name=artifact.sct ...]
//	          [-train cpu2006,omp2001] [-quick]
//	          [-state-dir DIR] [-state-compact-bytes N]
//	          [-workers N] [-max-batch N] [-max-pending N]
//	          [-default-timeout D] [-retry-after D]
//	          [-read-timeout D] [-write-timeout D] [-idle-timeout D]
//	          [-read-header-timeout D]
//	          [-drain D] [-log-json]
//
// With -state-dir the registry is durable: every load stages the
// artifact and journals the mutation before publishing it, and a
// restarted daemon replays the journal back to the same models with
// continued version counters. Corrupt entries are quarantined with a
// warning rather than blocking boot. The SPECCHAR_FAULTS environment
// variable arms fault injection for chaos drills (requires a binary
// built with -tags faultinject; see internal/faultinject).
//
// Endpoints:
//
//	POST   /v1/score          score {"model": ..., "samples": [[...]]}
//	GET    /v1/models         list loaded models
//	GET    /v1/models/{name}  one model's version and shape
//	PUT    /v1/models/{name}  load or hot-swap from an artifact body
//	DELETE /v1/models/{name}  unload
//	GET    /healthz           liveness
//	GET    /metrics           Prometheus text exposition
//
// On SIGINT/SIGTERM the daemon stops accepting connections, waits up to
// -drain for in-flight requests, scores everything already admitted to
// the batch queues, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specchar/internal/faultinject"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/registry"
	"specchar/internal/serve"
	"specchar/internal/suites"
)

// modelFlags collects repeatable -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, e := range *m {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// options collects every daemon knob in one place; run and its helpers
// take this instead of a parade of positionals.
type options struct {
	addr              string
	models            modelFlags
	train             string
	quick             bool
	workers           int
	maxBatch          int
	maxPending        int
	defaultTimeout    time.Duration
	retryAfter        time.Duration
	stateDir          string
	stateCompactBytes int64
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	drain             time.Duration
	logJSON           bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("specchard: ")
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8572", "listen address")
	flag.Var(&o.models, "model", "load a compiled-tree artifact as name=path (repeatable)")
	flag.StringVar(&o.train, "train", "", "comma-separated suites to train and load at startup (cpu2006,omp2001)")
	flag.BoolVar(&o.quick, "quick", false, "reduced-scale -train generation")
	flag.IntVar(&o.workers, "workers", 0, "goroutine bound per scoring batch (0 = serve default)")
	flag.IntVar(&o.maxBatch, "max-batch", 0, "max samples per scoring batch (0 = serve default)")
	flag.IntVar(&o.maxPending, "max-pending", 0, "admission bound: queued samples per model (0 = serve default)")
	flag.DurationVar(&o.defaultTimeout, "default-timeout", 0, "deadline for score requests without an explicit X-Deadline-Ms header (0 = none)")
	flag.DurationVar(&o.retryAfter, "retry-after", 0, "Retry-After hint on 429/503 responses (0 = serve default)")
	flag.StringVar(&o.stateDir, "state-dir", "", "durable registry state directory; empty = in-memory only")
	flag.Int64Var(&o.stateCompactBytes, "state-compact-bytes", 0, "journal size that triggers compaction (0 = registry default)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 60*time.Second, "http.Server WriteTimeout")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.BoolVar(&o.logJSON, "log-json", false, "stream the span trace as JSON Lines to stderr")
	flag.Parse()

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// openRegistry builds the model store: in-memory without -state-dir,
// durable (journal replay, quarantine warnings) with it.
func openRegistry(o options, rec *obs.Recorder) (*registry.Registry, error) {
	if o.stateDir == "" {
		return registry.New(), nil
	}
	reg, rep, err := registry.Open(o.stateDir, registry.OpenOptions{
		Recorder:     rec,
		CompactBytes: o.stateCompactBytes,
	})
	if err != nil {
		return nil, err
	}
	if rep.TornTail {
		log.Printf("state: journal had a torn tail (crash mid-append); incomplete record dropped")
	}
	for _, q := range rep.Quarantined {
		log.Printf("state: WARNING: quarantined %s v%d (sha %.12s): %s", q.Name, q.Version, q.SHA256, q.Reason)
	}
	for _, m := range rep.Models {
		log.Printf("state: recovered %q v%d (sha %.12s)", m.Name, m.Version, m.SHA256)
	}
	log.Printf("state: %s: %d model(s) recovered, %d quarantined",
		o.stateDir, len(rep.Models), len(rep.Quarantined))
	return reg, nil
}

func run(o options) error {
	if spec := os.Getenv("SPECCHAR_FAULTS"); spec != "" {
		n, err := faultinject.ActivateFromEnv(spec)
		if err != nil {
			return err
		}
		log.Printf("fault injection ARMED: %d fault(s) from SPECCHAR_FAULTS", n)
	}
	var sinks []obs.Sink
	if o.logJSON {
		sinks = append(sinks, obs.NewJSONLSink(os.Stderr))
	}
	rec := obs.New(sinks...)
	reg, err := openRegistry(o, rec)
	if err != nil {
		return err
	}
	defer reg.Close()

	if err := loadModels(reg, o.models, o.train, o.quick); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Registry:       reg,
		Recorder:       rec,
		MaxBatch:       o.maxBatch,
		MaxPending:     o.maxPending,
		Workers:        o.workers,
		DefaultTimeout: o.defaultTimeout,
		RetryAfter:     o.retryAfter,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// Every timeout is set, so one stalled peer cannot pin a connection
	// (and its goroutine) forever.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("listening on %s (%d models loaded)", ln.Addr(), reg.Len())

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	stop() // second signal kills the process the default way
	log.Printf("shutting down: draining in-flight requests (budget %s)", o.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Printf("drain budget exhausted: %v", err)
	}
	// Handlers have returned; score whatever the batch queues still hold.
	srv.Close()
	log.Print("drained; bye")
	return nil
}

// loadModels fills the registry from -model artifacts and -train suites.
// A daemon with zero models is almost certainly a misconfiguration, so it
// refuses to start silently empty unless nothing was requested at all
// (models then arrive via PUT).
func loadModels(reg *registry.Registry, models modelFlags, train string, quick bool) error {
	for _, e := range models {
		f, err := os.Open(e.path)
		if err != nil {
			return err
		}
		tree, err := mtree.ReadCompiled(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", e.path, err)
		}
		m, err := reg.Load(e.name, tree, e.path)
		if err != nil {
			return err
		}
		log.Printf("loaded %q v%d from %s (%d attrs, %d leaves)",
			m.Name, m.Version, e.path, tree.NumAttrs(), tree.NumLeaves())
	}
	if train != "" {
		for _, name := range strings.Split(train, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			tree, err := trainSuite(name, quick)
			if err != nil {
				return err
			}
			m, err := reg.Load(name, tree, "train")
			if err != nil {
				return err
			}
			log.Printf("trained %q v%d (%d attrs, %d leaves)",
				m.Name, m.Version, tree.NumAttrs(), tree.NumLeaves())
		}
	}
	return nil
}

// trainSuite generates a suite dataset and induces + compiles its tree,
// mirroring what `specchar compile` writes to an artifact.
func trainSuite(name string, quick bool) (*mtree.CompiledTree, error) {
	var s *suites.Suite
	switch name {
	case "cpu2006":
		s = suites.CPU2006()
	case "omp2001":
		s = suites.OMP2001()
	default:
		return nil, fmt.Errorf("unknown suite %q (want cpu2006 or omp2001)", name)
	}
	gen := suites.DefaultGenOptions()
	opts := mtree.DefaultOptions()
	opts.MinLeaf = 35
	if quick {
		gen.SamplesPerBenchmark = 40
		gen.OpsPerWindow = 512
		gen.WarmupOps = 8000
		opts.MinLeaf = 10
	}
	d, err := suites.Generate(s, gen)
	if err != nil {
		return nil, err
	}
	tree, err := mtree.Build(d, opts)
	if err != nil {
		return nil, err
	}
	return tree.Compile()
}
