package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specchar/internal/dataset"
	"specchar/internal/faultinject"
	"specchar/internal/obs"
	"specchar/internal/robust"
)

// ErrOverloaded rejects a request whose model already has MaxPending
// samples queued — the admission-control bound. Clients should back off
// and retry.
var ErrOverloaded = errors.New("serve: model queue full")

// ErrDraining rejects work submitted while the server is shutting down.
var ErrDraining = errors.New("serve: server draining")

// ErrModelGone fails queued requests whose model was removed between
// admission and scoring.
var ErrModelGone = errors.New("serve: model removed while queued")

// scoreJob is one admitted request waiting to be batched: the rows to
// score, the request's deadline (zero if none), and the slots the
// dispatcher fills before closing done.
type scoreJob struct {
	rows     [][]float64
	deadline time.Time
	out      []float64
	version  int
	err      error
	done     chan struct{}
}

// batcher owns one model's bounded queue and dispatcher goroutine.
//
// Admission is sample-count based: pending tracks queued samples across
// jobs and submit rejects instantly once it would exceed MaxPending, so
// a hot model sheds load at the door instead of stacking goroutines.
// The dispatcher coalesces whatever is queued when it wakes into a batch
// of up to MaxBatch samples — it never waits for more — and scores each
// batch through one compiled batch call against the model resolved at
// flush time, which is what makes registry hot-swaps take effect between
// batches with zero failed requests.
type batcher struct {
	s     *Server
	model string

	jobs    chan *scoreJob
	pending atomic.Int64 // queued samples, bounded by MaxPending

	// drainMu fences admission against shutdown: submit enqueues under
	// RLock, close flips draining under Lock before closing quit. Without
	// the fence a submit racing close could enqueue after the dispatcher's
	// final drain and wait forever on a job nothing will ever flush.
	drainMu  sync.RWMutex
	draining bool

	quit     chan struct{} // closed by close(); dispatcher drains then exits
	done     sync.WaitGroup
	closeOne sync.Once
}

// newBatcher builds a model's batcher; the caller starts its dispatcher
// with go b.run().
func newBatcher(s *Server, model string) *batcher {
	b := &batcher{
		s:     s,
		model: model,
		// Job slots are bounded by worst case one-sample jobs filling the
		// pending budget; the channel is never the admission limit.
		jobs: make(chan *scoreJob, s.cfg.MaxPending),
		quit: make(chan struct{}),
	}
	b.done.Add(1)
	return b
}

// submit admits the rows (or rejects with ErrOverloaded/ErrDraining),
// waits for the dispatcher to score them, and returns the predictions
// plus the model version that produced them. A canceled request context
// abandons the wait — the batch still scores, the result is discarded.
func (b *batcher) submit(ctx context.Context, rows [][]float64) ([]float64, int, error) {
	n := int64(len(rows))
	if n == 0 {
		return nil, 0, nil
	}
	// Work that is already dead on arrival never enters the queue.
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			b.s.count("specchard_deadline_rejected_total")
		}
		return nil, 0, err
	}
	b.drainMu.RLock()
	if b.draining {
		b.drainMu.RUnlock()
		return nil, 0, ErrDraining
	}
	if b.pending.Add(n) > int64(b.s.cfg.MaxPending) {
		b.pending.Add(-n)
		b.drainMu.RUnlock()
		b.s.count("specchard_rejected_total")
		return nil, 0, fmt.Errorf("%w: %q has %d samples pending (cap %d)",
			ErrOverloaded, b.model, b.pending.Load(), b.s.cfg.MaxPending)
	}
	job := &scoreJob{rows: rows, done: make(chan struct{})}
	if dl, ok := ctx.Deadline(); ok {
		job.deadline = dl
	}
	// Never blocks: admitted samples are capped at MaxPending, every job
	// carries at least one sample, and the channel holds MaxPending slots.
	b.jobs <- job
	b.drainMu.RUnlock()
	select {
	case <-job.done:
		return job.out, job.version, job.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// close stops admission, then stops the dispatcher after it drains the
// queue. Idempotent. Every job enqueued before close returns is scored.
func (b *batcher) close() {
	b.closeOne.Do(func() {
		b.drainMu.Lock()
		b.draining = true
		b.drainMu.Unlock()
		close(b.quit)
	})
	b.done.Wait()
}

// run is the dispatcher loop: pull one job, gather what is already
// queued behind it (up to MaxBatch samples), flush, repeat. On quit it
// drains everything already queued — shutdown scores admitted work
// rather than erroring it.
func (b *batcher) run() {
	defer b.done.Done()
	for {
		select {
		case j := <-b.jobs:
			b.flush(b.gather(j))
		case <-b.quit:
			for {
				select {
				case j := <-b.jobs:
					b.flush(b.gather(j))
				default:
					return
				}
			}
		}
	}
}

// gather takes the jobs already queued behind first, without waiting
// for more, until the batch holds MaxBatch samples or the queue is
// empty. Requests that arrive while a batch scores queue up and form the
// next batch, so coalescing grows with load and an idle model answers a
// lone request at once. The job that crosses MaxBatch still joins, and a
// single over-wide request scores as one batch.
func (b *batcher) gather(first *scoreJob) []*scoreJob {
	batch := []*scoreJob{first}
	for total := len(first.rows); total < b.s.cfg.MaxBatch; {
		select {
		case j := <-b.jobs:
			batch = append(batch, j)
			total += len(j.rows)
		default:
			return batch
		}
	}
	return batch
}

// flush completes one batch: shed jobs that expired while queued, score
// the rest, release the admission budget. Every job's done channel
// closes exactly once no matter what scoring does — a panic inside the
// tree is contained to this batch (the jobs fail with the inspectable
// PanicError, the dispatcher lives on) instead of taking the daemon
// down with queued work still waiting.
func (b *batcher) flush(batch []*scoreJob) {
	total := 0
	for _, j := range batch {
		total += len(j.rows)
	}
	defer func() {
		b.pending.Add(-int64(total))
		for _, j := range batch {
			close(j.done)
		}
	}()

	// Shed expired work before spending scoring time on it: the waiting
	// handler already gave up, and scoring it anyway would only delay the
	// live jobs behind it.
	now := time.Now()
	live := make([]*scoreJob, 0, len(batch))
	for _, j := range batch {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			j.err = fmt.Errorf("deadline expired %v before scoring: %w", now.Sub(j.deadline), context.DeadlineExceeded)
			b.s.count("specchard_deadline_rejected_total")
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	if err := robust.Safely(func() error {
		faultinject.Sleep("serve.batch.flush")
		faultinject.CheckPanic("serve.batch.flush")
		b.score(live)
		return nil
	}); err != nil {
		b.s.count("specchard_batch_panics_total")
		for _, j := range live {
			if j.err == nil && j.out == nil {
				j.err = err
			}
		}
	}
}

// score resolves the model now (the hot-swap point), packs every live
// job's rows into one batch, scores it, and scatters the outputs back.
func (b *batcher) score(live []*scoreJob) {
	total := 0
	for _, j := range live {
		total += len(j.rows)
	}
	m, ok := b.s.reg.Get(b.model)
	if !ok {
		for _, j := range live {
			j.err = fmt.Errorf("%w: %q", ErrModelGone, b.model)
		}
		return
	}

	ctx, span := b.s.rec.StartSpan(b.s.baseCtx, "serve.batch",
		obs.A("model", b.model), obs.A("jobs", len(live)))
	span.SetRows(total)
	defer span.End()

	tree := m.Tree.WithWorkers(b.s.cfg.Workers)
	ds := &dataset.Dataset{Schema: tree.Schema(), Samples: make([]dataset.Sample, 0, total)}
	for _, j := range live {
		for _, row := range j.rows {
			ds.Samples = append(ds.Samples, dataset.Sample{X: row})
		}
	}
	preds, err := tree.PredictDatasetCheckedContext(ctx, ds)
	if err != nil {
		// Width mismatches here mean the model was swapped to an
		// incompatible schema after the handler validated; each job gets
		// the inspectable error.
		for _, j := range live {
			j.err = err
		}
		return
	}
	off := 0
	for _, j := range live {
		j.out = preds[off : off+len(j.rows) : off+len(j.rows)]
		j.version = m.Version
		off += len(j.rows)
	}
	b.s.rec.VolatileCounter("specchard_batches_total").Add(1)
	b.s.rec.Gauge("specchard_last_batch_samples").Set(float64(total))
}
