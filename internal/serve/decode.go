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
// numbers are checked against the RFC 8259 grammar and converted with
// strconv.ParseFloat(s, 64), the call encoding/json makes for a
// float64, so the bits are the same. FuzzDecodeScoreRequest holds the
// two against each other.
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
// one backing array and each row is a full slice expression over it; an
// empty array decodes to an empty, non-nil slice, as in encoding/json.
func (p *scoreParser) samples() ([][]float64, bool) {
	flat := make([]float64, 0, len(p.b)/8)
	rows := [][]float64{}
	ok := p.array(func() bool {
		start := len(flat)
		ok := p.array(func() bool {
			v, ok := p.num()
			flat = append(flat, v)
			return ok
		})
		// Appending may move flat; the rows are re-pointed below, so
		// only their lengths matter here.
		rows = append(rows, flat[start:])
		return ok
	})
	if !ok {
		return nil, false
	}
	off := 0
	for k, row := range rows {
		end := off + len(row)
		rows[k] = flat[off:end:end]
		off = end
	}
	return rows, true
}

// array consumes a JSON array, calling elem to consume each element.
func (p *scoreParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// num consumes one number in the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does. A range error (1e400) is not ok: encoding/json
// rejects it, so the reference decoder must report it.
func (p *scoreParser) num() (float64, bool) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
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

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
