package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// colFixture builds a small dataset with repeating labels, negative
// zeros, and denormals — the bit patterns a binary round trip must
// preserve exactly.
func colFixture(t *testing.T) *Dataset {
	t.Helper()
	d := New(&Schema{Response: "CPI", Attributes: []string{"A", "B", "C"}})
	rows := []Sample{
		{X: []float64{0.5, -1.25, math.Copysign(0, -1)}, Y: 1.5, Label: "mcf"},
		{X: []float64{5e-324, 0, 3.75}, Y: -2.5, Label: "gcc"},
		{X: []float64{1e300, -1e-300, 42}, Y: 0.125, Label: "mcf"},
		{X: []float64{7, 8, 9}, Y: 3, Label: "lbm"},
	}
	for _, s := range rows {
		if err := d.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sameDataset compares two datasets bitwise (schema, labels, X, Y).
func sameDataset(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.Len() != want.Len() || got.Schema.NumAttrs() != want.Schema.NumAttrs() ||
		got.Schema.Response != want.Schema.Response {
		t.Fatalf("shape changed: %d×%d %q vs %d×%d %q",
			want.Len(), want.Schema.NumAttrs(), want.Schema.Response,
			got.Len(), got.Schema.NumAttrs(), got.Schema.Response)
	}
	for j, a := range want.Schema.Attributes {
		if got.Schema.Attributes[j] != a {
			t.Fatalf("attribute %d: %q vs %q", j, a, got.Schema.Attributes[j])
		}
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if g.Label != w.Label {
			t.Fatalf("sample %d label: %q vs %q", i, w.Label, g.Label)
		}
		if math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("sample %d response bits differ: %v vs %v", i, w.Y, g.Y)
		}
		for j := range w.X {
			if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
				t.Fatalf("sample %d attr %d bits differ: %v vs %v", i, j, w.X[j], g.X[j])
			}
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	d := colFixture(t)
	var buf bytes.Buffer
	if err := d.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.mapping != nil {
		t.Fatal("reader path must not claim a mapping")
	}
	sameDataset(t, d, c.Dataset())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnarEmptyDataset(t *testing.T) {
	d := New(&Schema{Response: "CPI", Attributes: []string{"A"}})
	var buf bytes.Buffer
	if err := d.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || len(c.Columns()) != 1 {
		t.Fatalf("got %d samples, %d columns", c.Len(), len(c.Columns()))
	}
}

func TestToColumnarMatchesColumns(t *testing.T) {
	d := colFixture(t)
	c := d.ToColumnar()
	cols := d.Columns()
	for j := range cols {
		for i := range cols[j] {
			if math.Float64bits(c.Columns()[j][i]) != math.Float64bits(cols[j][i]) {
				t.Fatalf("col %d row %d differs", j, i)
			}
		}
	}
	sameDataset(t, d, c.Dataset())
}

func TestOpenColumnar(t *testing.T) {
	d := colFixture(t)
	path := filepath.Join(t.TempDir(), "fixture.spcol")
	var buf bytes.Buffer
	if err := d.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, d, c.Dataset())
	mapped := c.mapping != nil
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	t.Logf("mapped=%v", mapped)

	if _, err := OpenColumnar(filepath.Join(t.TempDir(), "missing.spcol")); err == nil {
		t.Fatal("opened a missing file")
	}
}

// TestColumnarRejectsCorruption flips bits and truncates: every
// mutation of a valid artifact must be rejected — the CRC covers all
// payload bytes and the trailer check covers the CRC itself.
func TestColumnarRejectsCorruption(t *testing.T) {
	d := colFixture(t)
	var buf bytes.Buffer
	if err := d.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()

	for off := 0; off < len(art); off++ {
		bad := append([]byte(nil), art...)
		bad[off] ^= 0x40
		if _, err := ReadColumnar(bytes.NewReader(bad)); err == nil {
			t.Fatalf("accepted artifact with bit flipped at offset %d", off)
		}
	}
	for cut := 0; cut < len(art); cut += 7 {
		if _, err := ReadColumnar(bytes.NewReader(art[:cut])); err == nil {
			t.Fatalf("accepted artifact truncated to %d bytes", cut)
		}
	}
	if _, err := ReadColumnar(bytes.NewReader(append(append([]byte(nil), art...), 0))); err == nil {
		t.Fatal("accepted artifact with trailing bytes")
	}
	if _, err := ReadColumnar(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

// FuzzReadColumnar checks that arbitrary bytes never panic the reader,
// that the zero-copy and copying parses agree, and that anything
// accepted survives a write/read round trip bit for bit.
func FuzzReadColumnar(f *testing.F) {
	seed := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := d.WriteColumnar(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	d := New(&Schema{Response: "CPI", Attributes: []string{"A", "B"}})
	d.Append(Sample{X: []float64{1, 2}, Y: 3, Label: "x"})
	d.Append(Sample{X: []float64{-1, math.Copysign(0, -1)}, Y: -3, Label: "y"})
	valid := seed(d)
	f.Add(valid)
	f.Add(seed(New(&Schema{Response: "Y", Attributes: []string{"only"}})))
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:11])           // cut inside the header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(columnarMagic))
	f.Fuzz(func(t *testing.T, input []byte) {
		c, err := ReadColumnar(bytes.NewReader(input))
		zc, zerr := parseColumnar(append([]byte(nil), input...), true)
		if (err == nil) != (zerr == nil) {
			t.Fatalf("zero-copy and copying parses disagree: %v vs %v", err, zerr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if c.Len() != zc.Len() {
			t.Fatalf("parses disagree on length: %d vs %d", c.Len(), zc.Len())
		}
		for j := range c.Columns() {
			for i := range c.Columns()[j] {
				if math.Float64bits(c.Columns()[j][i]) != math.Float64bits(zc.Columns()[j][i]) {
					t.Fatalf("parses disagree at col %d row %d", j, i)
				}
			}
		}
		var buf bytes.Buffer
		if err := c.Dataset().WriteColumnar(&buf); err != nil {
			t.Fatalf("accepted columnar failed to serialize: %v", err)
		}
		c2, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		sameDataset(t, c.Dataset(), c2.Dataset())
	})
}
