package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// readScoreRequest reads a POST /v1/score body whole and decodes it.
// A body over maxBodyBytes fails with an error wrapping
// *http.MaxBytesError, whatever its contents.
func readScoreRequest(w http.ResponseWriter, r *http.Request) (scoreRequest, error) {
	body, err := readBody(w, r)
	if err != nil {
		return scoreRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	return decodeScoreRequest(body)
}

// readBody reads a request body, capped at maxBodyBytes, into one buffer
// sized from Content-Length when the client sent one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(bytes.MinRead)
	if r.ContentLength > 0 {
		size += min(r.ContentLength, maxBodyBytes)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// decodeScoreRequest decodes a score request body. Bodies in the shape
// every client sends take the single-pass parseScoreRequest; anything
// else goes through decodeScoreJSON, so every error a client sees comes
// from encoding/json.
func decodeScoreRequest(body []byte) (scoreRequest, error) {
	if req, ok := parseScoreRequest(body); ok {
		return req, nil
	}
	return decodeScoreJSON(body)
}

// decodeScoreJSON is the reference decoder: encoding/json into
// scoreRequest, then a check that nothing but whitespace follows the
// document. That is the strictness ReadJSON applies to artifacts: a
// request with trailing bytes after the document is malformed, not
// sloppy.
func decodeScoreJSON(body []byte) (scoreRequest, error) {
	var req scoreRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("trailing data after request body (token %v)", tok)
	}
	return req, nil
}

// parseScoreRequest decodes, in one pass, the body that the client
// package, specctl and perfbench all send:
//
//	{"model":"<plain string>","samples":[[num,...],...]}
//
// with each key exactly once, in either order, and any JSON whitespace.
// It reports ok=false for anything outside that shape: escapes or
// non-ASCII in a string, null, other keys or key case, a repeated key,
// a number strconv.ParseFloat rejects (out of range), or trailing data.
// Every body it accepts, encoding/json accepts with the same result:
// numbers are checked against the RFC 8259 grammar and converted to the
// same bits as strconv.ParseFloat(s, 64), the call encoding/json makes
// for a float64 (see num). FuzzDecodeScoreRequest holds the two against
// each other.
func parseScoreRequest(body []byte) (scoreRequest, bool) {
	var req scoreRequest
	var haveModel, haveSamples bool
	p := scoreParser{b: body}
	if !p.eat('{') {
		return req, false
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return req, false
		}
		switch {
		case string(key) == "model" && !haveModel:
			var name []byte
			name, ok = p.str()
			req.Model, haveModel = string(name), true
		case string(key) == "samples" && !haveSamples:
			req.Samples, ok = p.samples()
			haveSamples = true
		default:
			ok = false
		}
		if !ok {
			return req, false
		}
		if p.eat('}') {
			break
		}
		if !p.eat(',') {
			return req, false
		}
	}
	p.ws()
	return req, haveModel && haveSamples && p.i == len(p.b)
}

// scoreParser is a cursor over a score request body.
type scoreParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *scoreParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it is next.
func (p *scoreParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (p *scoreParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// samples consumes an array of arrays of numbers. The numbers go into
// one backing array, sized up front to an upper bound of their count
// (the parser demands a comma between any two numbers), and each row is
// a full slice expression over it. The row headers are sized up front
// too: every row opens with '[' and any two rows are separated by a
// comma, so neither count can fall short of the rows. An empty array
// decodes to an empty, non-nil slice, as in encoding/json.
func (p *scoreParser) samples() ([][]float64, bool) {
	rest := p.b[p.i:]
	flat := make([]float64, 0, bytes.Count(rest, []byte{','})+1)
	rows := make([][]float64, 0, min(bytes.Count(rest, []byte{'['}), cap(flat)))
	if !p.eat('[') {
		return nil, false
	}
	for first := true; !p.eat(']'); first = false {
		if !first && !p.eat(',') {
			return nil, false
		}
		if !p.eat('[') {
			return nil, false
		}
		start := len(flat)
		for first := true; !p.eat(']'); first = false {
			if !first && !p.eat(',') {
				return nil, false
			}
			v, ok := p.num()
			if !ok {
				return nil, false
			}
			flat = append(flat, v)
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
	}
	return rows, true
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// num consumes one number in the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does, to the float64 nearest its decimal value.
//
// The scan builds the decimal mantissa m of the digits. A number with no
// exponent part, m < 2⁵² (so at most 16 significant digits) and k ≤ 22
// fraction digits is m/10^k with both operands exact, and one IEEE
// division rounds that quotient correctly, as ParseFloat rounds every
// number: the bits are the same. It is strconv's own exact case
// (atof64exact). Every other number goes to strconv.ParseFloat over the
// same bytes. A range error (1e400) is not ok: encoding/json rejects
// it, so the reference decoder must report it.
func (p *scoreParser) num() (float64, bool) {
	p.ws()
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, m = mantissa(b, i, 0)
	default:
		return 0, false
	}
	k := 0
	if i < len(b) && b[i] == '.' {
		j, mf := mantissa(b, i+1, m)
		if j == i+1 {
			return 0, false
		}
		k, i, m = j-i-1, j, mf
	}
	exp := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if !exp && m < 1<<52 && k < len(pow10) {
		v := float64(m) / pow10[k]
		if neg {
			v = -v
		}
		p.i = i
		return v, true
	}
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return v, true
}

// mantissa scans the digits from i, appending each to m while m is
// below 2⁵², and returns the index of the first non-digit and m. Once
// m reaches 2⁵² it stops growing, so it never overflows and stays at or
// above 2⁵², outside num's exact window.
func mantissa(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if m < 1<<52 {
			m = m*10 + uint64(b[i]-'0')
		}
	}
	return i, m
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
