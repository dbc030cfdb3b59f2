package mtree

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenBuild is the fixed configuration behind the golden fixture: any
// change to induction numerics shows up as a fixture diff, and the
// parallel build must reproduce the serial bytes exactly.
func goldenBuild(t *testing.T, workers int) *Tree {
	t.Helper()
	opts := DefaultOptions()
	opts.MinLeaf = 10
	opts.Workers = workers
	tree, err := Build(piecewiseDataset(1200, 17, 0.25), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestGoldenTreeJSON pins the serialized form of a reference build. Run
// with -update after an intentional change to induction or the format.
func TestGoldenTreeJSON(t *testing.T) {
	path := filepath.Join("testdata", "golden_tree.json")
	got := treeJSONBytes(t, goldenBuild(t, 1))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("serialized tree differs from golden fixture; if the change is intentional, rerun with -update")
	}

	// The same bytes at full parallelism: the determinism acceptance
	// criterion, pinned against a committed artifact rather than a
	// same-process sibling build.
	if par := treeJSONBytes(t, goldenBuild(t, 8)); !bytes.Equal(par, want) {
		t.Error("parallel build serialized differently from the golden fixture")
	}
}

// TestGoldenTreeJSONRoundTrip checks the fixture is readable and
// re-serializes to itself.
func TestGoldenTreeJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_tree.json"))
	if err != nil {
		t.Skipf("fixture missing: %v", err)
	}
	tree, err := ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadJSON(fixture): %v", err)
	}
	if !bytes.Equal(treeJSONBytes(t, tree), raw) {
		t.Error("fixture does not survive a read/write round trip")
	}
}

// FuzzReadJSON checks that arbitrary input never panics the tree decoder
// and that anything it accepts is internally consistent and survives a
// round trip.
func FuzzReadJSON(f *testing.F) {
	// A genuine tree as the anchor seed.
	opts := DefaultOptions()
	opts.MinLeaf = 8
	tree, err := Build(piecewiseDataset(200, 3, 0.2), opts)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	// Structural corruptions the decoder must reject without panicking.
	f.Add(`{"version":1,"schema":{"Response":"y","Attributes":["a"]},"options":{},"root":{"model":{"Intercept":1},"left":{"model":{"Intercept":0}}}}`)                                                                // one child
	f.Add(`{"version":1,"schema":{"Response":"y","Attributes":["a"]},"options":{},"root":{"model":{"Intercept":1,"Coef":[2],"Terms":[5]}}}`)                                                                          // term out of range
	f.Add(`{"version":1,"schema":{"Response":"y","Attributes":["a"]},"options":{},"root":{"model":{"Intercept":1,"Coef":[2,3],"Terms":[0]}}}`)                                                                        // coef/terms mismatch
	f.Add(`{"version":1,"schema":{"Response":"y","Attributes":["a","b"]},"options":{},"root":{"attr":7,"threshold":0.5,"left":{"model":{"Intercept":0}},"right":{"model":{"Intercept":1}},"model":{"Intercept":1}}}`) // split attr out of range
	f.Add(`{"version":99,"schema":{"Response":"y","Attributes":["a"]},"options":{},"root":{"model":{"Intercept":1}}}`)                                                                                                // wrong version
	f.Add(`{"version":1}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, input string) {
		tree, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted trees must be safely usable and round-trippable.
		tree.Predict(make([]float64, tree.Schema.NumAttrs()))
		var buf bytes.Buffer
		if err := tree.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted tree failed to serialize: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if again.NumLeaves() != tree.NumLeaves() {
			t.Fatalf("round trip changed leaf count: %d vs %d", tree.NumLeaves(), again.NumLeaves())
		}
	})
}

// ReadJSON must consume exactly one tree document. Before this was
// enforced, a registry artifact corrupted by truncation-then-concatenation
// (two writes landing in one file, a partial old model after a new one)
// loaded silently as whatever valid document it started with.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	opts := DefaultOptions()
	opts.MinLeaf = 8
	tree, err := Build(piecewiseDataset(200, 3, 0.2), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()

	// Trailing whitespace is fine (WriteJSON itself ends with a newline).
	for _, ok := range []string{doc, doc + "\n\t  \n"} {
		if _, err := ReadJSON(strings.NewReader(ok)); err != nil {
			t.Errorf("clean document rejected: %v", err)
		}
	}
	// Anything else after the document is corruption, not slack.
	for name, bad := range map[string]string{
		"concatenated document": doc + doc,
		"truncated second doc":  doc + doc[:len(doc)/3],
		"json value":            doc + `{"version":1}`,
		"garbage":               doc + "xx-trailing-garbage",
		"null":                  doc + "null",
	} {
		if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted, want trailing-data error", name)
		}
	}
}
