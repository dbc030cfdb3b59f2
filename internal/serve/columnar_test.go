package serve

import (
	"bytes"
	"math"
	"net/http"
	"strings"
	"testing"

	"specchar/internal/obs"
)

// TestColumnarRouteBitIdentical sends batches at and above columnarMin,
// so every one takes the fused-columnar route, and holds served
// predictions bitwise against per-sample Predict: the route swap must be
// unobservable in the outputs, not merely close.
func TestColumnarRouteBitIdentical(t *testing.T) {
	f := newFixture(t, Config{Recorder: obs.New()})
	for _, batch := range []int{columnarMin, columnarMin + 1, 300, 1000} {
		status, sr, emsg := f.score(t, "cpu2006", rowsOf(f.data, 0, batch))
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d (%s)", batch, status, emsg)
		}
		for i, got := range sr.Predictions {
			want := f.tree.Predict(f.data.Samples[i].X)
			if math.Float64bits(got) != math.Float64bits(want) {
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
	if !strings.Contains(b.String(), "specchard_columnar_batches_total 4") {
		t.Fatalf("columnar batch counter missing or wrong:\n%s", b.String())
	}
}

// TestColumnarThresholdGates pins the routing decision itself: batches
// below columnarMin take the row path (counter stays absent), and
// batches at or above it take the columnar path.
func TestColumnarThresholdGates(t *testing.T) {
	countOf := func(f *fixture) string {
		resp, err := http.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "specchard_columnar_batches_total") {
				return line
			}
		}
		return ""
	}

	f := newFixture(t, Config{Recorder: obs.New()})
	if status, _, e := f.score(t, "cpu2006", rowsOf(f.data, 0, columnarMin-1)); status != 200 {
		t.Fatalf("sub-threshold score failed: %d (%s)", status, e)
	}
	if line := countOf(f); line != "" {
		t.Fatalf("sub-threshold batch took the columnar route: %q", line)
	}
	if status, _, e := f.score(t, "cpu2006", rowsOf(f.data, 0, columnarMin)); status != 200 {
		t.Fatalf("at-threshold score failed: %d (%s)", status, e)
	}
	if line := countOf(f); line != "specchard_columnar_batches_total 1" {
		t.Fatalf("at-threshold batch missed the columnar route: %q", line)
	}
}
