package client

import (
	"sync"
	"time"
)

// breaker is an error-rate circuit breaker over a sliding window of
// attempt outcomes.
//
// Closed: attempts flow, outcomes land in a ring buffer; once the ring
// is full and the error rate reaches the threshold, the breaker opens.
// Open: every attempt is rejected until the cooldown elapses, then
// exactly one probe is admitted (half-open). The probe's outcome
// decides: success closes the breaker and clears the window, failure
// re-opens it and restarts the cooldown. Judging only a full window
// keeps one early failure from tripping a cold client.
type breaker struct {
	mu        sync.Mutex
	threshold float64
	cooldown  time.Duration

	ring []bool // true = failure
	pos  int
	n    int // filled entries, ≤ len(ring)

	open     bool
	openedAt time.Time
	probing  bool
}

func (b *breaker) init(window int, threshold float64, cooldown time.Duration) {
	b.ring = make([]bool, window)
	b.threshold = threshold
	b.cooldown = cooldown
}

// allow decides whether an attempt may proceed now.
func (b *breaker) allow(now time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if b.probing || now.Sub(b.openedAt) < b.cooldown {
		return ErrBreakerOpen
	}
	// Cooldown over: admit this caller as the half-open probe.
	b.probing = true
	return nil
}

// record feeds an attempt outcome back into the window and drives the
// state machine.
func (b *breaker) record(success bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		if success {
			b.open = false
			b.reset()
		} else {
			b.openedAt = now
		}
		return
	}
	if b.open {
		return // outcome of a request admitted before the trip; window is moot
	}
	b.ring[b.pos] = !success
	b.pos = (b.pos + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	if b.n < len(b.ring) {
		return
	}
	fails := 0
	for _, f := range b.ring {
		if f {
			fails++
		}
	}
	if float64(fails)/float64(len(b.ring)) >= b.threshold {
		b.open = true
		b.openedAt = now
	}
}

func (b *breaker) reset() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.pos, b.n = 0, 0
}

// budget is the retry token bucket: retries spend whole tokens, each
// success refills half a token up to the cap. It bounds how much extra
// load retries can add on top of first attempts — roughly cap extra
// requests per burst, sustained only at half the success rate.
type budget struct {
	mu     sync.Mutex
	cap    float64
	tokens float64
}

func (g *budget) init(capacity int) {
	g.cap = float64(capacity)
	g.tokens = g.cap
}

// spend takes one token, reporting false if the bucket is dry.
func (g *budget) spend() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tokens < 1 {
		return false
	}
	g.tokens--
	return true
}

// refill credits a successful request.
func (g *budget) refill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tokens += 0.5
	if g.tokens > g.cap {
		g.tokens = g.cap
	}
}
