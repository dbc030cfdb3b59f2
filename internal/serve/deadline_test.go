package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specchar/internal/client"
	"specchar/internal/obs"
)

// scoreWithHeader posts one score request with extra headers, returning
// status and the decoded bodies.
func (f *fixture) scoreWithHeader(t testing.TB, model string, rows [][]float64, hdr map[string]string) (int, scoreResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(scoreRequest{Model: model, Samples: rows})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/score", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr scoreResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr, resp
}

// Flush sheds work whose deadline passed while it sat in the queue: the
// expired job fails with DeadlineExceeded without being scored, jobs
// still inside their budget score normally, and the shed is counted.
func TestFlushShedsExpiredWork(t *testing.T) {
	rec := obs.New()
	f := newFixture(t, Config{Recorder: rec})
	b, err := f.srv.batcherFor("cpu2006")
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(f.data, 0, 2)
	expired := &scoreJob{rows: rows, deadline: time.Now().Add(-time.Second), done: make(chan struct{})}
	live := &scoreJob{rows: rows, done: make(chan struct{})}
	b.pending.Add(int64(len(rows) * 2)) // flush releases what submit admitted
	b.flush([]*scoreJob{expired, live})

	if !errors.Is(expired.err, context.DeadlineExceeded) {
		t.Errorf("expired job err = %v, want DeadlineExceeded", expired.err)
	}
	if expired.out != nil {
		t.Error("expired job was scored anyway")
	}
	if live.err != nil {
		t.Fatalf("live job failed: %v", live.err)
	}
	want := f.tree.Predict(rows[0])
	if live.out[0] != want {
		t.Errorf("live job scored %v, want %v", live.out[0], want)
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("specchard_deadline_rejected_total 1")) {
		t.Errorf("shed not counted:\n%s", buf.String())
	}
}

// A request whose X-Deadline-Ms budget runs out while it is queued
// answers 408. The dispatcher is parked, so the work cannot flush first.
func TestDeadlineHeaderMissedBudgetIs408(t *testing.T) {
	f := newFixture(t, Config{})
	_, release := parkBatcher(t, f.srv, "cpu2006")
	status, _, _ := f.scoreWithHeader(t, "cpu2006", rowsOf(f.data, 0, 1), map[string]string{client.DeadlineHeader: "1"})
	if status != http.StatusRequestTimeout {
		t.Errorf("1ms deadline got status %d, want 408", status)
	}
	release()
	// A request with room to spare scores fine through the same path.
	status, sr, _ := f.scoreWithHeader(t, "cpu2006", rowsOf(f.data, 0, 1), map[string]string{client.DeadlineHeader: "30000"})
	if status != http.StatusOK || len(sr.Predictions) != 1 {
		t.Errorf("30s deadline got status %d, want 200", status)
	}
}

func TestDeadlineHeaderMalformedIs400(t *testing.T) {
	f := newFixture(t, Config{})
	for _, h := range []string{"abc", "-5", "0", "1.5"} {
		status, _, _ := f.scoreWithHeader(t, "cpu2006", rowsOf(f.data, 0, 1), map[string]string{client.DeadlineHeader: h})
		if status != http.StatusBadRequest {
			t.Errorf("header %q got status %d, want 400", h, status)
		}
	}
}

// DefaultTimeout applies the server-side budget when the client sends
// no header: a request still queued when it runs out answers 408.
func TestDefaultTimeoutAppliesWithoutHeader(t *testing.T) {
	f := newFixture(t, Config{DefaultTimeout: 100 * time.Millisecond})
	parkBatcher(t, f.srv, "cpu2006")
	begin := time.Now()
	status, _, _ := f.score(t, "cpu2006", rowsOf(f.data, 0, 1))
	if status != http.StatusRequestTimeout {
		t.Errorf("status %d, want 408 from DefaultTimeout", status)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("default-timeout rejection took %v; deadline not propagated", elapsed)
	}
}

// 429 and 503 carry a Retry-After hint so resilient clients back off at
// the server's cadence instead of guessing.
func TestRetryAfterStampedOnShedding(t *testing.T) {
	f := newFixture(t, Config{RetryAfter: 3 * time.Second})
	for name, err := range map[string]error{"overloaded": ErrOverloaded, "draining": ErrDraining} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/score", nil)
		f.srv.failErr(rec, req, err)
		wantStatus := http.StatusTooManyRequests
		if name == "draining" {
			wantStatus = http.StatusServiceUnavailable
		}
		if rec.Code != wantStatus {
			t.Errorf("%s: status %d, want %d", name, rec.Code, wantStatus)
		}
		if got := rec.Header().Get("Retry-After"); got != "3" {
			t.Errorf("%s: Retry-After = %q, want \"3\"", name, got)
		}
	}
	// Conflict-class failures carry no hint: retrying changes nothing.
	rec := httptest.NewRecorder()
	f.srv.failErr(rec, httptest.NewRequest(http.MethodPost, "/v1/score", nil), ErrModelGone)
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("409 carries Retry-After %q, want none", got)
	}
}

// A client that disconnected gets no response at all: the handler
// counts the abandonment and drops the write instead of mislabeling it
// as a server-side timeout.
func TestCanceledClientDropsResponse(t *testing.T) {
	rec := obs.New()
	f := newFixture(t, Config{Recorder: rec})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/score", nil).WithContext(ctx)
	f.srv.failErr(w, req, context.Canceled)
	if w.Body.Len() != 0 {
		t.Errorf("disconnected client still got a body: %q", w.Body.String())
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("specchard_client_gone_total 1")) {
		t.Errorf("abandonment not counted:\n%s", buf.String())
	}

	// Cancellation with the client still connected is server-side
	// plumbing: answer 503 so the client retries elsewhere.
	w = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/score", nil)
	f.srv.failErr(w, req, context.Canceled)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("live-client cancellation got %d, want 503", w.Code)
	}
}
