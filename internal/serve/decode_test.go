package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specchar/internal/obs"
)

// canonicalBody encodes a score request the way every client does:
// json.Marshal of a map, so the keys come out sorted.
func canonicalBody(t testing.TB, model string, rows [][]float64) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"model": model, "samples": rows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// randomRows draws n rows of width decimals with at most five places.
func randomRows(n, width int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(100000)) / 1e5
		}
	}
	return rows
}

// countsRows draws n rows of width dyadic values k/256, about 60% of
// them zero: the shape of PMU counter rows, whose densities are
// mostly exact zeros and short binary fractions.
func countsRows(n, width int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			if rng.Float64() >= 0.6 {
				rows[i][j] = float64(1+rng.Intn(1024)) / 256
			}
		}
	}
	return rows
}

// checkDecode holds the single-pass parser against encoding/json on one
// body and reports whether the parser accepted it. If it accepts,
// encoding/json must accept too, with the same model and bitwise-equal
// samples, nil and empty slices told apart. Put the other way round: a
// body encoding/json rejects is never accepted.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := parseScoreRequest(body)
	if !ok {
		return false
	}
	want, err := decodeScoreJSON(body)
	if err != nil {
		t.Fatalf("single-pass parser accepted %q, encoding/json rejects it: %v", body, err)
	}
	if got.Model != want.Model {
		t.Fatalf("%q: model %q, encoding/json %q", body, got.Model, want.Model)
	}
	if (got.Samples == nil) != (want.Samples == nil) || len(got.Samples) != len(want.Samples) {
		t.Fatalf("%q: samples %#v, encoding/json %#v", body, got.Samples, want.Samples)
	}
	for i, row := range got.Samples {
		w := want.Samples[i]
		if (row == nil) != (w == nil) || len(row) != len(w) {
			t.Fatalf("%q: row %d is %#v, encoding/json %#v", body, i, row, w)
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(w[j]) {
				t.Fatalf("%q: sample %d,%d is %v (%#x), encoding/json %v (%#x)",
					body, i, j, v, math.Float64bits(v), w[j], math.Float64bits(w[j]))
			}
		}
	}
	return true
}

// scoreBodyCases are request bodies at the edges of the single-pass
// parser's shape; fast says whether it takes them. want is the
// handler's status and body for each, as the encoding/json-only decoder
// answered them.
var scoreBodyCases = []struct {
	name, body string
	fast       bool
	want       string
}{
	{"canonical", `{"model":"cpu2006","samples":[[0.5,0.25,0.75,0.125]]}`, true,
		`200 {"model":"cpu2006","version":1,"predictions":[8.642222901986967]}`},
	{"swapped keys and whitespace", " \n{ \"samples\" : [ [ 1 , 2 ,3,4 ] ,\t[0.5,0.25,0.75,0.125] ] ,\r\n \"model\" : \"cpu2006\" } \n", true,
		`200 {"model":"cpu2006","version":1,"predictions":[25.98793507325051,8.642222901986967]}`},
	{"negative zero", `{"model":"cpu2006","samples":[[-0,-0.0,0,0E0]]}`, true,
		`200 {"model":"cpu2006","version":1,"predictions":[6.966007462274334]}`},
	{"smallest subnormal", `{"model":"cpu2006","samples":[[5e-324,0,0,0]]}`, true,
		`200 {"model":"cpu2006","version":1,"predictions":[6.966007462274334]}`},
	{"largest finite", `{"model":"cpu2006","samples":[[0,0,0,1.7976931348623157e308]]}`, true,
		`200 {"model":"cpu2006","version":1,"predictions":[1.06690484650715e+307]}`},
	{"exponent forms", `{"model":"cpu2006","samples":[[1E2,1e+2,1e-2,12.5e-1]]}`, true,
		`200 {"model":"cpu2006","version":1,"predictions":[104.88052742804325]}`},
	{"empty samples", `{"model":"cpu2006","samples":[]}`, true,
		`400 {"error":"no samples"}`},
	{"empty row", `{"model":"cpu2006","samples":[[]]}`, true,
		`400 {"error":"sample 0 has 0 attributes, model \"cpu2006\" expects 4"}`},
	{"empty model", `{"model":"","samples":[[1,2,3,4]]}`, true,
		`400 {"error":"missing model name"}`},
	{"out of range", `{"model":"cpu2006","samples":[[1e400,0,0,0]]}`, false,
		`400 {"error":"decoding request: json: cannot unmarshal number 1e400 into Go struct field scoreRequest.samples of type float64"}`},
	{"leading zero", `{"model":"cpu2006","samples":[[01,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character '1' after array element"}`},
	{"bare point", `{"model":"cpu2006","samples":[[1.,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character ',' after decimal point in numeric literal"}`},
	{"no integer part", `{"model":"cpu2006","samples":[[.5,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character '.' looking for beginning of value"}`},
	{"plus sign", `{"model":"cpu2006","samples":[[+1,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character '+' looking for beginning of value"}`},
	{"NaN", `{"model":"cpu2006","samples":[[NaN,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character 'N' looking for beginning of value"}`},
	{"Infinity", `{"model":"cpu2006","samples":[[Infinity,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character 'I' looking for beginning of value"}`},
	{"hex float", `{"model":"cpu2006","samples":[[0x1p3,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character 'x' after array element"}`},
	{"bare exponent", `{"model":"cpu2006","samples":[[1e,0,0,0]]}`, false,
		`400 {"error":"decoding request: invalid character ',' in exponent of numeric literal"}`},
	{"escaped model", `{"model":"cpu\u0032006","samples":[[0.5,0.25,0.75,0.125]]}`, false,
		`200 {"model":"cpu2006","version":1,"predictions":[8.642222901986967]}`},
	{"non-ASCII model", `{"model":"cpü2006","samples":[[1,2,3,4]]}`, false,
		`404 {"error":"model \"cpü2006\" not loaded"}`},
	{"key case", `{"Model":"cpu2006","SAMPLES":[[0.5,0.25,0.75,0.125]]}`, false,
		`200 {"model":"cpu2006","version":1,"predictions":[8.642222901986967]}`},
	{"duplicate model", `{"model":"nope","model":"cpu2006","samples":[[0.5,0.25,0.75,0.125]]}`, false,
		`200 {"model":"cpu2006","version":1,"predictions":[8.642222901986967]}`},
	{"duplicate samples", `{"model":"cpu2006","samples":[[1,2,3,4]],"samples":[[1,2]]}`, false,
		`400 {"error":"sample 0 has 2 attributes, model \"cpu2006\" expects 4"}`},
	{"unknown nested key", `{"model":"cpu2006","samples":[[0.5,0.25,0.75,0.125]],"extra":{"samples":[[1]]}}`, false,
		`200 {"model":"cpu2006","version":1,"predictions":[8.642222901986967]}`},
	{"missing samples", `{"model":"cpu2006"}`, false,
		`400 {"error":"no samples"}`},
	{"empty object", `{}`, false,
		`400 {"error":"missing model name"}`},
	{"null samples", `{"model":"cpu2006","samples":null}`, false,
		`400 {"error":"no samples"}`},
	{"null row", `{"model":"cpu2006","samples":[null]}`, false,
		`400 {"error":"sample 0 has 0 attributes, model \"cpu2006\" expects 4"}`},
	{"null number", `{"model":"cpu2006","samples":[[null,0,0,0]]}`, false,
		`200 {"model":"cpu2006","version":1,"predictions":[6.966007462274334]}`},
	{"flat samples", `{"model":"cpu2006","samples":[1,2,3,4]}`, false,
		`400 {"error":"decoding request: json: cannot unmarshal number into Go struct field scoreRequest.samples of type []float64"}`},
	{"trailing garbage", `{"model":"cpu2006","samples":[[1,2,3,4]]}x`, false,
		`400 {"error":"trailing data after request body (token \u003cnil\u003e)"}`},
	{"trailing document", `{"model":"cpu2006","samples":[[1,2,3,4]]}{"x":1}`, false,
		`400 {"error":"trailing data after request body (token {)"}`},
	{"truncated", `{"model":"cpu2006","samples":[[1,2,3,4]`, false,
		`400 {"error":"decoding request: unexpected EOF"}`},
	{"empty body", ``, false,
		`400 {"error":"decoding request: EOF"}`},
}

// numberEdges sit on and around the edges of the parser's exact
// window: no exponent part, a decimal mantissa below 2⁵² and at most 22
// fraction digits convert with one division, the rest with ParseFloat.
var numberEdges = []string{
	"4503599627370495", "4503599627370496", "9007199254740993", // 2⁵²−1, 2⁵², 2⁵³+1
	"450359962737049.5", "450359962737049.6", "4503599627370495.5", "0.4503599627370495", "0.4503599627370496",
	"1234567890123456789", "12345678901234567890", // 19 and 20 significant digits
	"0.1234567890123456789", "0.12345678901234567891", "9007199254740993.0000001",
	"0.0000000000000000000003", "0.00000000000000000000003", // 22 and 23 fraction digits
	"1.000000000000000000003", "0." + strings.Repeat("0", 40) + "1", "0." + strings.Repeat("0", 400) + "1",
	"-0", "-0.0", "0.0", "1e-7", "1E+2", "5e-324", "-5e-324",
	"0.1", "0.3", "2.675", "-123.456", "0.00390625", "3.99609375", "-4503599627370495.0",
}

// numberBody wraps one number in a one-sample request.
func numberBody(num string) string {
	return `{"model":"m","samples":[[` + num + `]]}`
}

// checkNumber holds the parser's conversion of one number against
// strconv.ParseFloat, bitwise.
func checkNumber(t *testing.T, num string) {
	t.Helper()
	want, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("ParseFloat(%q): %v", num, err)
	}
	p := scoreParser{b: []byte(num)}
	got, ok := p.num()
	if !ok || p.i != len(num) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("num(%q) = %v (%#x), ok=%v, consumed %d of %d bytes; ParseFloat gives %v (%#x)",
			num, got, math.Float64bits(got), ok, p.i, len(num), want, math.Float64bits(want))
	}
}

func TestDecodeScoreRequestEdges(t *testing.T) {
	for _, tc := range scoreBodyCases {
		if got := checkDecode(t, []byte(tc.body)); got != tc.fast {
			t.Errorf("%s: single-pass parser accepted=%v, want %v", tc.name, got, tc.fast)
		}
	}
	for _, rows := range []int{1, 512} {
		if body := canonicalBody(t, "cpu2006", randomRows(rows, 19, 1)); !checkDecode(t, body) {
			t.Errorf("canonical %d-row body fell back to encoding/json", rows)
		}
	}
	for _, num := range numberEdges {
		if !checkDecode(t, []byte(numberBody(num))) {
			t.Errorf("%s: single-pass parser fell back to encoding/json", num)
		}
		checkNumber(t, num)
	}
	// Random decimals of 1 to 20 digits with the point anywhere, so both
	// sides of every edge of the exact window come up.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		digits := make([]byte, 1+rng.Intn(20))
		for d := range digits {
			digits[d] = byte('0' + rng.Intn(10))
		}
		num := "0." + strings.Repeat("0", rng.Intn(8)) + string(digits)
		if whole := rng.Intn(len(digits) + 1); whole > 0 {
			digits[0] = byte('1' + rng.Intn(9))
			num = string(digits[:whole])
			if whole < len(digits) {
				num += "." + string(digits[whole:])
			}
		}
		if rng.Intn(2) == 0 {
			num = "-" + num
		}
		checkNumber(t, num)
	}
	req, _ := parseScoreRequest([]byte(`{"model":"m","samples":[[-0,5e-324,1.7976931348623157e308]]}`))
	if got := req.Samples[0]; math.Float64bits(got[0]) != 1<<63 || math.Float64bits(got[1]) != 1 || got[2] != math.MaxFloat64 {
		t.Errorf("edge values decoded to %v", got)
	}
}

// Every body answers with the exact status and bytes the
// encoding/json-only handler gave, accepted or not.
func TestScoreResponsesMatchReferenceDecoder(t *testing.T) {
	f := newFixture(t, Config{})
	for _, tc := range scoreBodyCases {
		resp, err := http.Post(f.ts.URL+"/v1/score", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if got := fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSuffix(b.String(), "\n")); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func FuzzDecodeScoreRequest(f *testing.F) {
	for _, rows := range []int{1, 512} {
		f.Add(canonicalBody(f, "cpu2006", randomRows(rows, 19, int64(rows))))
	}
	for _, tc := range scoreBodyCases {
		f.Add([]byte(tc.body))
	}
	for _, num := range numberEdges {
		f.Add([]byte(numberBody(num)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// specchard_score_decode_ns_total accumulates body read and decode time
// per score request.
func TestScoreDecodeCounter(t *testing.T) {
	f := newFixture(t, Config{Recorder: obs.New()})
	if status, _, msg := f.score(t, "cpu2006", rowsOf(f.data, 0, 4)); status != http.StatusOK {
		t.Fatalf("score failed: %d (%s)", status, msg)
	}
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	m := regexp.MustCompile(`(?m)^specchard_score_decode_ns_total (\d+)$`).FindStringSubmatch(b.String())
	if m == nil {
		t.Fatalf("metrics lack specchard_score_decode_ns_total:\n%s", b.String())
	}
	if ns, _ := strconv.ParseInt(m[1], 10, 64); ns <= 0 {
		t.Errorf("specchard_score_decode_ns_total = %d after a scored request, want > 0", ns)
	}
}

// The server-side layer counters of a score request (decode, wait for
// the batch, encode and write) time disjoint stretches of the handler,
// so their sums never exceed the handler's own time.
func TestScoreLayerTimesWithinHandlerTotal(t *testing.T) {
	rec := obs.New()
	f := newFixture(t, Config{Recorder: rec})
	var total atomic.Int64
	h := f.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		total.Add(time.Since(start).Nanoseconds())
	}))
	defer ts.Close()
	for _, n := range []int{1, 4, 512} {
		body := canonicalBody(t, "cpu2006", rowsOf(f.data, 0, n))
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d-sample request: status %d", n, resp.StatusCode)
		}
	}
	var sum int64
	for _, name := range []string{"specchard_score_decode_ns_total", "specchard_score_wait_ns_total", "specchard_score_encode_ns_total"} {
		ns := rec.VolatileCounter(name).Value()
		if ns <= 0 {
			t.Errorf("%s = %d after three scored requests, want > 0", name, ns)
		}
		sum += ns
	}
	if sum > total.Load() {
		t.Errorf("layer times add up to %d ns, more than the handler's %d ns", sum, total.Load())
	}
}

// BenchmarkDecodeScoreRequest decodes 1- and 512-row bodies of 19
// attributes two ways: decimal holds random five-place decimals, counts
// the dyadic, mostly zero values of PMU rows.
func BenchmarkDecodeScoreRequest(b *testing.B) {
	for _, kind := range []struct {
		name string
		rows func(n, width int, seed int64) [][]float64
	}{{"decimal", randomRows}, {"counts", countsRows}} {
		for _, rows := range []int{1, 512} {
			body := canonicalBody(b, "cpu2006", kind.rows(rows, 19, 1))
			for _, dec := range []struct {
				name string
				fn   func([]byte) (scoreRequest, error)
			}{{"fast", decodeScoreRequest}, {"json", decodeScoreJSON}} {
				b.Run(fmt.Sprintf("%s/%d/%s", kind.name, rows, dec.name), func(b *testing.B) {
					b.SetBytes(int64(len(body)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						req, err := dec.fn(body)
						if err != nil {
							b.Fatal(err)
						}
						benchRequest = req
					}
				})
			}
		}
	}
}

// benchRequest keeps the benchmarked decodes observable.
var benchRequest scoreRequest
