package dataset

// Zero-parse columnar dataset artifacts.
//
// CSV and ARFF pay a strconv.ParseFloat per value on every load. A
// scoring pipeline that reads the same dataset repeatedly wants the
// inverse trade: parse once at conversion time, then load by mapping
// bytes. WriteColumnar serializes the dataset as a little-endian
// column-major binary whose float payload is the in-memory layout of
// Columns() — so a reader on a little-endian machine can hand slices of
// the file straight to the columnar scoring kernels with zero decoding.
//
//	offset  field
//	0       magic "SPCCCOL1" (8 bytes)
//	8       format version (u32 LE)
//	12      attribute count w (u32)
//	16      sample count n (u64)
//	24      schema: response string, w attribute strings (u32 len + bytes)
//	        label table: u32 count, strings (first-appearance order)
//	        label codes: n × u32 (index into the label table)
//	        zero padding to the next 64-byte file offset
//	pad     Y column: n × f64
//	        X columns: w × n × f64 (each attribute's column contiguous)
//	end-4   CRC-32 (IEEE) of every preceding byte
//
// Integers and float bit patterns are little-endian. The float payload
// is 64-byte aligned from the start of the file, so a page-aligned mmap
// of the file yields cache-line-aligned, 8-byte-aligned columns.
//
// The reader mirrors the compiled-tree artifact reader's guarantees
// (internal/mtree/artifact.go): checksum verified before anything else
// is trusted, every count cross-checked against the bytes actually
// present, label codes range-checked, non-finite values rejected (the
// same ErrNonFinite contract Append enforces at row ingest), and hard
// EOF — trailing bytes mean a torn write, not slack.
//
// OpenColumnar (columnar_mmap_linux.go) maps the file and reinterprets
// the payload in place when the platform allows it; ReadColumnar decodes
// from any io.Reader and is the portable and fuzzable path. Both return
// a Columnar, the column-major counterpart of Dataset.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"specchar/internal/faultinject"
)

// ErrColumnar tags every malformed columnar-artifact error, so callers
// can distinguish corruption from I/O failure with errors.Is.
var ErrColumnar = errors.New("dataset: invalid columnar artifact")

// columnarMagic identifies a columnar dataset artifact. The trailing
// '1' pins the file family; incompatible layouts bump columnarVersion.
const columnarMagic = "SPCCCOL1"

// columnarVersion is the current columnar format version.
const columnarVersion = 1

// columnarAlign is the file-offset alignment of the float payload: one
// cache line, which also guarantees the 8-byte alignment the zero-copy
// reinterpret needs.
const columnarAlign = 64

// Columnar is a column-major dataset: the payload of a columnar
// artifact, or any dataset flipped into scoring orientation. Columns
// may alias a read-only file mapping (see Mapped), in which case they
// are invalid after Close and must not be written through.
type Columnar struct {
	Schema *Schema
	n      int
	y      []float64
	cols   [][]float64 // cols[j][i] = attribute j of sample i
	labels []string    // distinct labels, first-appearance order
	codes  []uint32    // per-sample index into labels

	// mapping holds the mmap'd file bytes when the columns alias a
	// mapping; Close unmaps it. Nil for heap-backed columnars.
	mapping []byte
}

// Len returns the number of samples.
func (c *Columnar) Len() int { return c.n }

// Ys returns the response column. It aliases the columnar storage.
func (c *Columnar) Ys() []float64 { return c.y }

// Columns returns the predictor columns, the shape the compiled tree's
// PredictColumnsCheckedContext consumes. The slices alias the columnar
// storage.
func (c *Columnar) Columns() [][]float64 { return c.cols }

// Label returns the label of sample i.
func (c *Columnar) Label(i int) string { return c.labels[c.codes[i]] }

// Mapped reports whether the columns alias a file mapping.
func (c *Columnar) Mapped() bool { return c.mapping != nil }

// Close releases the file mapping, if any. The columns are invalid
// afterwards. Safe on heap-backed columnars and safe to call twice.
func (c *Columnar) Close() error {
	m := c.mapping
	c.mapping = nil
	c.y, c.cols, c.codes = nil, nil, nil
	c.n = 0
	if m == nil {
		return nil
	}
	return unmapFile(m)
}

// Dataset materializes the row-major form: a full copy, independent of
// the columnar storage (and of any file mapping behind it).
func (c *Columnar) Dataset() *Dataset {
	d := New(c.Schema.Clone())
	w := len(c.cols)
	slab := make([]float64, c.n*w)
	d.Samples = make([]Sample, c.n)
	for i := 0; i < c.n; i++ {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		for j := 0; j < w; j++ {
			row[j] = c.cols[j][i]
		}
		d.Samples[i] = Sample{X: row, Y: c.y[i], Label: c.labels[c.codes[i]]}
	}
	return d
}

// ToColumnar flips the dataset into a heap-backed Columnar without
// going through bytes: the same slab layout OpenColumnar maps.
func (d *Dataset) ToColumnar() *Columnar {
	c := &Columnar{
		Schema: d.Schema.Clone(),
		n:      d.Len(),
		y:      d.Ys(),
		cols:   d.Columns(),
	}
	codeOf := make(map[string]uint32)
	c.codes = make([]uint32, d.Len())
	for i, s := range d.Samples {
		code, ok := codeOf[s.Label]
		if !ok {
			code = uint32(len(c.labels))
			codeOf[s.Label] = code
			c.labels = append(c.labels, s.Label)
		}
		c.codes[i] = code
	}
	return c
}

// WriteColumnar serializes the dataset as a columnar artifact.
func (d *Dataset) WriteColumnar(w io.Writer) error {
	if d.Schema == nil {
		return fmt.Errorf("%w: dataset has no schema", ErrColumnar)
	}
	width, n := d.Schema.NumAttrs(), d.Len()
	buf := make([]byte, 0, 256+4*n+8*n*(width+1))
	buf = append(buf, columnarMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, columnarVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = appendColString(buf, d.Schema.Response)
	for _, a := range d.Schema.Attributes {
		buf = appendColString(buf, a)
	}
	cc := d.ToColumnar()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cc.labels)))
	for _, l := range cc.labels {
		buf = appendColString(buf, l)
	}
	for _, code := range cc.codes {
		buf = binary.LittleEndian.AppendUint32(buf, code)
	}
	for len(buf)%columnarAlign != 0 {
		buf = append(buf, 0)
	}
	for _, v := range cc.y {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, col := range cc.cols {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func appendColString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// ReadColumnar loads a columnar artifact from any reader: the portable
// path, decoding into heap-backed columns. Use OpenColumnar to map a
// file in place instead.
func ReadColumnar(r io.Reader) (*Columnar, error) {
	r = faultinject.WrapReader("dataset.ReadColumnar.reader", r)
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading columnar artifact: %w", err)
	}
	return parseColumnar(data, false)
}

// hostLittleEndian reports whether float64 bit patterns in memory match
// the artifact's little-endian layout, which is what makes the
// zero-copy reinterpret legal.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// parseColumnar validates an artifact held in data and builds the
// Columnar over it. With zerocopy set (and a little-endian host, and
// 8-byte-aligned payload) the float columns alias data directly;
// otherwise they are decoded copies. Validation is identical either
// way.
func parseColumnar(data []byte, zerocopy bool) (*Columnar, error) {
	cr := &colReader{data: data}
	if string(cr.bytes(len(columnarMagic))) != columnarMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrColumnar)
	}
	if v := cr.u32(); cr.err == nil && v != columnarVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrColumnar, v)
	}
	width := int(cr.u32())
	n64 := cr.u64()
	if cr.err != nil {
		return nil, cr.err
	}
	if width <= 0 || width > len(data) {
		return nil, fmt.Errorf("%w: implausible attribute count %d", ErrColumnar, width)
	}
	// Each sample needs a 4-byte label code and (width+1) floats; bound
	// n by the bytes present before allocating anything n-sized.
	if n64 > uint64(len(data))/(4+8*uint64(width+1)) {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrColumnar, n64)
	}
	n := int(n64)
	schema := &Schema{Response: cr.str(), Attributes: make([]string, width)}
	for j := range schema.Attributes {
		schema.Attributes[j] = cr.str()
	}
	nlabels := int(cr.u32())
	if cr.err == nil && (nlabels < 0 || nlabels > len(data)) {
		return nil, fmt.Errorf("%w: implausible label count %d", ErrColumnar, nlabels)
	}
	if cr.err != nil {
		return nil, cr.err
	}
	labels := make([]string, nlabels)
	for i := range labels {
		labels[i] = cr.str()
	}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = cr.u32()
	}
	if cr.err != nil {
		return nil, cr.err
	}
	for _, code := range codes {
		if int(code) >= nlabels {
			return nil, fmt.Errorf("%w: label code %d out of range (table has %d)", ErrColumnar, code, nlabels)
		}
	}
	if pad := (columnarAlign - cr.off%columnarAlign) % columnarAlign; pad > 0 {
		for _, b := range cr.bytes(pad) {
			if b != 0 {
				return nil, fmt.Errorf("%w: nonzero padding byte", ErrColumnar)
			}
		}
	}

	c := &Columnar{Schema: schema, n: n, labels: labels, codes: codes}
	c.y = cr.f64s(n, zerocopy)
	c.cols = make([][]float64, width)
	for j := range c.cols {
		c.cols[j] = cr.f64s(n, zerocopy)
	}

	// Checksum, then hard EOF: the CRC covers everything before it, and
	// nothing may follow it.
	payload := cr.off
	sum := cr.u32()
	if cr.err != nil {
		return nil, cr.err
	}
	if got := crc32.ChecksumIEEE(data[:payload]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrColumnar, sum, got)
	}
	if cr.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after checksum", ErrColumnar, len(data)-cr.off)
	}
	// The same finiteness contract Append enforces row by row: NaN and
	// Inf silently corrupt induction and scoring, so they never ingest.
	for _, v := range c.y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: response is %v", ErrNonFinite, v)
		}
	}
	for j, col := range c.cols {
		for _, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: attribute %q is %v", ErrNonFinite, schema.Attributes[j], v)
			}
		}
	}
	return c, nil
}

// sliceAliases reports whether col's backing array lies inside m —
// how OpenColumnar learns whether the zero-copy reinterpret actually
// happened or the parse fell back to copies.
func sliceAliases(col []float64, m []byte) bool {
	if len(col) == 0 || len(m) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&col[0]))
	lo := uintptr(unsafe.Pointer(&m[0]))
	return p >= lo && p < lo+uintptr(len(m))
}

// colReader is a bounds-checked little-endian cursor over the artifact
// bytes, with the same latched-error discipline as the compiled-tree
// artifactReader.
type colReader struct {
	data []byte
	off  int
	err  error
}

func (c *colReader) bytes(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.data) || c.off+n < c.off {
		if c.err == nil {
			c.err = fmt.Errorf("%w: truncated (want %d bytes at offset %d of %d)", ErrColumnar, n, c.off, len(c.data))
		}
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *colReader) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *colReader) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *colReader) str() string {
	n := int(c.u32())
	if c.err == nil && n > len(c.data) {
		c.err = fmt.Errorf("%w: implausible string length %d", ErrColumnar, n)
		return ""
	}
	return string(c.bytes(n))
}

// f64s reads n float64s: a zero-copy reinterpret of the underlying
// bytes when allowed (zerocopy request, little-endian host, 8-byte
// aligned base — the writer's 64-byte payload alignment guarantees the
// latter for well-formed artifacts), a decoded copy otherwise.
func (c *colReader) f64s(n int, zerocopy bool) []float64 {
	if c.err == nil && (n < 0 || n > (len(c.data)-c.off)/8) {
		c.err = fmt.Errorf("%w: implausible array length %d", ErrColumnar, n)
	}
	if c.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	b := c.bytes(8 * n)
	if zerocopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
