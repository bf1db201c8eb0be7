package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
)

// The :predict codec is tested against encoding/json, not against
// hand-picked expectations: these are the types the handler decoded into and
// encoded from before it had a codec of its own.

type wireTensor struct {
	Shape []int     `json:"shape,omitempty"`
	Data  []float32 `json:"data,omitempty"`
}

type predictRequest struct {
	Inputs map[string]wireTensor `json:"inputs"`
}

type predictResponse struct {
	Model     string                `json:"model"`
	RequestID string                `json:"request_id"`
	Outputs   map[string]wireTensor `json:"outputs"`
	Trace     *predictTrace         `json:"trace,omitempty"`
}

// oracleDecode is the request path as it was: json.Decoder with
// DisallowUnknownFields, then per input the declared shape for an omitted
// one, zeros for omitted data, and the checks that followed — a known input,
// the declared shape, as many elements as it holds, no input missing.
func oracleDecode(h *Host, body []byte) (map[string][]float32, error) {
	var req predictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	out := map[string][]float32{}
	for name, wt := range req.Inputs {
		spec := h.inSpec(name)
		if spec == nil {
			return nil, fmt.Errorf("unknown input %q", name)
		}
		if wt.Shape != nil && !dnnfusion.Shape(wt.Shape).Equal(spec.Shape) {
			return nil, fmt.Errorf("input %q: shape %v, declared %v", name, wt.Shape, spec.Shape)
		}
		data := make([]float32, dnnfusion.Shape(spec.Shape).NumElements())
		if wt.Data != nil {
			if len(wt.Data) != len(data) {
				return nil, fmt.Errorf("input %q: %d elements, declared %d", name, len(wt.Data), len(data))
			}
			copy(data, wt.Data)
		}
		out[name] = data
	}
	for _, spec := range h.inSpecs {
		if out[spec.Name] == nil {
			return nil, fmt.Errorf("missing input %q", spec.Name)
		}
	}
	return out, nil
}

// codecHost serves y = x + bias over x [2,3] and bias [3]: two inputs small
// enough that a fuzzer reaches full, short and over-long data arrays.
func codecHost(tb testing.TB) *Host {
	tb.Helper()
	g := dnnfusion.NewGraph("codec")
	x := g.AddInput("x", dnnfusion.ShapeOf(2, 3))
	bias := g.AddInput("bias", dnnfusion.ShapeOf(3))
	g.MarkOutputAs("y", g.Apply1(dnnfusion.Add(), x, bias))
	m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(1))
	if err != nil {
		tb.Fatal(err)
	}
	r := NewRegistry()
	tb.Cleanup(r.Close)
	h, err := r.Register("codec", m, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := h.Model(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// compileWide compiles y = relu(x) over x [64,1024]: a tensor whose body
// and response span many codec chunks.
func compileWide(tb testing.TB) *dnnfusion.Model {
	tb.Helper()
	g := dnnfusion.NewGraph("wide")
	x := g.AddInput("x", dnnfusion.ShapeOf(64, 1024))
	g.MarkOutputAs("y", g.Apply1(dnnfusion.Relu(), x))
	m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(1))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// checkPredictBody holds the scanner to the oracle on one body: the same
// accept/reject decision and, when both accept, the same bits in every
// element. The pooled tensors are poisoned first, so an element the scanner
// should have written and did not cannot pass as a zero. The scanner runs
// twice, its data arrays cut into chunks of decodeChunkBytes and then of
// cutBytes, and both runs must also fail with the same error text.
func checkPredictBody(t *testing.T, h *Host, body []byte, cutBytes int) {
	t.Helper()
	want, wantErr := oracleDecode(h, body)
	in := h.inPool.Get().(*predictInputs)
	defer h.inPool.Put(in)
	var firstErr error
	for run, chunkBytes := range []int{decodeChunkBytes, cutBytes} {
		for _, tensor := range in.tensors {
			tensor.Fill(float32(math.NaN()))
		}
		realBytes := decodeChunkBytes
		decodeChunkBytes = chunkBytes
		gotErr := h.decodePredict(body, in)
		decodeChunkBytes = realBytes
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("body %.400q, data in chunks of %d bytes:\n  encoding/json: %v\n  scanner:       %v", body, chunkBytes, wantErr, gotErr)
		}
		if run == 0 {
			firstErr = gotErr
		} else if fmt.Sprint(gotErr) != fmt.Sprint(firstErr) {
			t.Fatalf("body %.400q: data in chunks of %d bytes fails with\n  %v\nin chunks of %d bytes with\n  %v",
				body, decodeChunkBytes, firstErr, chunkBytes, gotErr)
		}
		if wantErr != nil {
			continue
		}
		for name, w := range want {
			got := in.tensors[name].Data()
			for k := range w {
				if math.Float32bits(got[k]) != math.Float32bits(w[k]) {
					t.Fatalf("body %.400q, data in chunks of %d bytes: input %q element %d = %v (%#x), encoding/json reads %v (%#x)",
						body, chunkBytes, name, k, got[k], math.Float32bits(got[k]), w[k], math.Float32bits(w[k]))
				}
			}
		}
	}
}

var predictBodySeeds = []string{
	`{"inputs": {"x": {}}}`, // the README curl body
	`{"inputs":{"x":{}}}`,
	`{"inputs":{"x":{},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[2,3],"data":[1,2,3,4,5,6]},"bias":{"shape":[3],"data":[0.5,-0.25,1e-7]}}}`,
	// Reordered keys, whitespace, folded field names.
	"{ \"inputs\" : {\r\n\t\"bias\" : { \"data\" : [ 1 , 2 , 3 ] , \"shape\" : [ 3 ] } , \"x\" : { } } } ",
	`{"INPUTS":{"x":{"DATA":[1,2,3,4,5,6],"Shape":[2,3]},"bias":{}}}`,
	`{"input\u017f":{"x":{},"bia\u017f":{}}}`,
	// Escaped and duplicate names; the last duplicate wins, verdict included.
	`{"inputs":{"\u0078":{},"b\u0069as":{"data":[1,2,3]}}}`,
	`{"inputs":{"x":{"data":[1,2,3]},"x":{},"bias":{}}}`,
	`{"inputs":{"x":{},"x":{"data":[1,2,3]},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[9]},"bias":{},"x":{"shape":[2,3]}}}`,
	`{"inputs":{"zz":{}},"inputs":null,"inputs":{"x":{},"bias":{}}}`,
	`{"inputs":{"x":{},"bias":{}},"inputs":{"bias":{"data":[7,8,9]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1,2,3],"data":[null,5],"data":[null,null,null]}}}`,
	`{"inputs":{"x":{},"bias":{"shape":[3,4],"shape":[null]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1,2,3],"data":null}}}`,
	// null and omitted fields, null members, a null body.
	`{"inputs":{"x":{"shape":null,"data":null},"bias":null}}`,
	`{"inputs":{"x":{"data":[null,1,null,2,null,3]},"bias":{"shape":[null]}}}`,
	`{"inputs":null}`,
	`null`,
	`nullx`,
	`{}`,
	// Number forms.
	`{"inputs":{"x":{},"bias":{"data":[1e-7,-0,1E+2]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[0.1e1,12345678901234567890,0.12345678901234567890]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1e-45,1.1754942e-38,7e-46]}}}`,
	// 20 digits that are a multiple of 2^64: a uint64 mantissa reads 0.
	`{"inputs":{"x":{},"bias":{"data":[1.8446744073709551616,0.18446744073709551616,36893488147419103232e-19]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1.844674407370955161600,-3.6893488147419103232,0.0018446744073709551616e3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[16777217,16777217.0000001,1.00000005960464477539062500001]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[3.4028235e38,3.4028236e38,1e39]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[01,2,3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1.,2,3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[.5,2,3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[+1,2,3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[1e,2,3]}}}`,
	`{"inputs":{"x":{},"bias":{"data":[-,2,3]}}}`,
	`{"inputs":{"x":{"shape":[2,3]},"bias":{"shape":[-0]}}}`,
	`{"inputs":{"x":{"shape":[2,3.0]},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[02,3]},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[2,3e0]},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[2,99999999999999999999]},"bias":{}}}`,
	// Wrong types, unknown fields, malformed and truncated bodies.
	`{"inputs":{"x":{"data":[1,2,3,4,5,6,7]},"bias":{}}}`, // one element too long
	`{"inputs":{"x":{"data":[1,2,3,4,5]},"bias":{}}}`,
	`{"inputs":{"x":{"data":[]},"bias":{}}}`,
	`{"inputs":{"x":{"shape":[]},"bias":{}}}`,
	`{"inputs":{"x":{"data":["1",2,3,4,5,6]},"bias":{}}}`,
	`{"inputs":{"x":{"data":[[1],2,3,4,5,6]},"bias":{}}}`,
	`{"inputs":{"x":{"data":[true,2,3,4,5,6]},"bias":{}}}`,
	`{"inputs":{"x":{"data":{}},"bias":{}}}`,
	`{"inputs":{"x":[],"bias":{}}}`,
	`{"inputs":[]}`,
	`{"inputs":{"x":{},"bias":{},"zz":{}}}`,
	`{"inputs":{"x":{},"bias":{}},"outputs":{}}`,
	`{"inputs":{"x":{"dtype":"f32"},"bias":{}}}`,
	`{"inputs":{"x":{},"bias":{}}} trailing garbage`,
	`{"inputs":{"x":{},"bias":{}}}{"inputs":`,
	`{"inputs":{"x":{},"bias":{},}}`,
	`{"inputs":{"x":{"data":[1,2,3,4,5,6,]},"bias":{}}}`,
	`{"inputs":{"x":{"data":[1,2,3`,
	`{"inputs":{"x":{}`,
	`{"inputs":{"x\`,
	`{"inputs":{"x` + "\n" + `":{}}}`,
	`{"inputs":{"\ud800":{}}}`,
	"{\"inputs\":{\"\xff\":{}}}",
	`{not json`,
	`[1,2,3]`,
	`"inputs"`,
	`12`,
	``,
	`   `,
}

// FuzzPredictBody is the differential test of the request scanner: for any
// body, the decision and the decoded bits json.Decoder would have produced,
// with the data arrays in one chunk and cut into chunks of a few bytes.
// Plain go test runs it over the seeds.
func FuzzPredictBody(f *testing.F) {
	for _, seed := range predictBodySeeds {
		f.Add([]byte(seed))
	}
	h := codecHost(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkPredictBody(t, h, body, 3) })
}

// TestPredictBodyChunked holds a 64x1024 input's data array, cut into many
// chunks and parsed on 1, 2 and 4 cores, to the oracle, and its error text
// to that of the same array parsed as one chunk (the serial scan).
func TestPredictBodyChunked(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("wide", compileWide(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Model(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(27))
	base := make([]string, 64*1024)
	for k := range base {
		switch f := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))); rng.Intn(8) {
		case 0:
			base[k] = "0"
		case 1:
			base[k] = strconv.Itoa(rng.Intn(2000) - 1000)
		case 2:
			base[k] = strconv.FormatFloat(float64(f), 'e', -1, 32)
		default:
			base[k] = strconv.FormatFloat(float64(f), 'f', -1, 32)
		}
	}
	bodyOf := func(elems []string, sep string) []byte {
		return []byte(`{"inputs":{"x":{"data":[` + strings.Join(elems, sep) + `]}}}`)
	}
	edit := func(k int, elem string) []string {
		elems := slices.Clone(base)
		elems[k] = elem
		return elems
	}

	// Where the cuts fall: by chunk past the first, the index of its first
	// element, from the chunks the decoder made of a valid body.
	cutsOf := func(elems []string) (firsts []int) {
		in := h.inPool.Get().(*predictInputs)
		defer h.inPool.Put(in)
		if err := h.decodePredict(bodyOf(elems, ","), in); err != nil {
			t.Fatal(err)
		}
		for _, ch := range in.run.chunks[1:] {
			firsts = append(firsts, ch.first)
		}
		return firsts
	}
	firsts := cutsOf(base)
	if len(firsts) < 8 {
		t.Fatalf("the base body is %d chunks, want many", len(firsts)+1)
	}
	// null on both sides of every cut comma. A null is shorter than most
	// elements and moves the cuts after it, so the first cut without one is
	// nulled until there is none.
	nulls := slices.Clone(base)
	for settled := false; !settled; {
		settled = true
		for _, k := range cutsOf(nulls) {
			if nulls[k-1] != "null" || nulls[k] != "null" {
				for j := k - 2; j <= k+1; j++ {
					nulls[j] = "null"
				}
				settled = false
				break
			}
		}
	}
	twoErrors := edit(firsts[6], "+1")
	twoErrors[firsts[2]+5] = "true"

	bodies := []struct {
		name string
		body []byte
	}{
		{"valid", bodyOf(base, ",")},
		{"null at and beside every cut", bodyOf(nulls, ",")},
		{"whitespace around every comma", []byte(`{"inputs":{"x":{"data":[ ` + strings.Join(base, " \n,\t ") + "\r\n]}}}")},
		{"a bad literal", bodyOf(edit(firsts[3]+7, "1.e5"), ",")},
		{"a truncated null", bodyOf(edit(firsts[2], "nul"), ",")},
		{"a string element", bodyOf(edit(firsts[4]-1, `"1"`), ",")},
		{"[1,]", []byte(`{"inputs":{"x":{"data":[` + strings.Join(base, ",") + `,]}}}`)},
		{"[1 2]", bodyOf(edit(firsts[1]+1, "1 2"), ",")},
		{"a nested [", bodyOf(edit(firsts[5], "[1"), ",")},
		{"an early ] in the last chunk", bodyOf(edit(len(base)-3, "1]"), ",")},
		{"errors in two chunks", bodyOf(twoErrors, ",")},
		{"over-long", bodyOf(append(slices.Clone(base), "1"), ",")},
		{"short", bodyOf(base[:len(base)-1], ",")},
		{"unterminated", []byte(`{"inputs":{"x":{"data":[` + strings.Join(base, ","))},
		{"a duplicated data member", []byte(`{"inputs":{"x":{"data":[` + strings.Join(base, ",") +
			`],"data":[` + strings.Join(nulls, ",") + `]}}}`)},
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, b := range bodies {
				t.Run(b.name, func(t *testing.T) { checkPredictBody(t, h, b.body, math.MaxInt) })
			}
		})
	}
}

// TestParseFloat32MatchesStrconv is the differential proof the exact decimal
// path in parseFloat32 rests on: over a million generated literals —
// shortest and fixed-precision renderings of random float32s and float64s,
// random digit strings, and float32 rounding ties approached from both sides
// at every precision — the result has the bits strconv.ParseFloat(s, 32)
// gives and the same overflow verdict.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checked, doubleRoundingTraps := 0, 0
	check := func(lit string) {
		t.Helper()
		checked++
		want, wantErr := strconv.ParseFloat(lit, 32)
		// Followed by a delimiter, as in a body, and at the very end of one.
		for _, tail := range []string{",", ""} {
			got, next, ok := parseFloat32([]byte(lit+tail), 0)
			if ok != (wantErr == nil) {
				t.Fatalf("%q: ok = %v, strconv: %v", lit, ok, wantErr)
			}
			if next != len(lit) {
				t.Fatalf("%q: consumed %d bytes, want %d", lit, next, len(lit))
			}
			if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("%q: %v (%#x), strconv.ParseFloat(s, 32) gives %v (%#x)",
					lit, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
			}
		}
		if wide, err := strconv.ParseFloat(lit, 64); err == nil && wantErr == nil && float32(wide) != float32(want) {
			doubleRoundingTraps++ // rounding through float64 gets this one wrong
		}
	}
	jsonForm := func(s string) string { // strconv writes e+07; JSON takes it, and e7, E7, e+7 too
		switch rng.Intn(4) {
		case 0:
			return strings.Replace(s, "e+", "e", 1)
		case 1:
			return strings.Replace(s, "e", "E", 1)
		case 2:
			return strings.Replace(strings.Replace(s, "e+0", "e+", 1), "e-0", "e-", 1)
		}
		return s
	}
	for i := 0; i < 150_000; i++ {
		f := math.Float32frombits(rng.Uint32())
		if f != f || f-f != 0 {
			continue
		}
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
		check(jsonForm(strconv.FormatFloat(float64(f), 'e', -1, 32)))
		check(jsonForm(strconv.FormatFloat(float64(f), 'e', rng.Intn(20), 32)))
		// What a float32 reads as once a client has widened it.
		check(jsonForm(strconv.FormatFloat(float64(f), 'e', -1, 64)))
	}
	for i := 0; i < 100_000; i++ {
		// Magnitudes a served tensor holds: fixed notation, few digits.
		f := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		check(strconv.FormatFloat(float64(f), 'f', -1, 32))
		check(strconv.FormatFloat(float64(f), 'f', rng.Intn(12), 64))
	}
	for i := 0; i < 100_000; i++ {
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteByte('-')
		}
		intDigits, fracDigits := 1+rng.Intn(12), rng.Intn(14)
		if rng.Intn(4) == 0 {
			b.WriteByte('0')
		} else {
			b.WriteByte(byte('1' + rng.Intn(9)))
			for d := 1; d < intDigits; d++ {
				b.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
		if fracDigits > 0 {
			b.WriteByte('.')
			for d := 0; d < fracDigits; d++ {
				b.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "e%d", rng.Intn(121)-60)
		}
		check(b.String())
	}
	// Forced ties: the float64 midway between a float32 and its successor,
	// exactly, rounded to every precision from 9 digits up (so the decimal
	// falls just to either side of the tie, nearer than a float64 can tell),
	// and one float64 step to either side.
	for i := 0; i < 30_000; i++ {
		bits := rng.Uint32() &^ (1 << 31)
		if rng.Intn(8) == 0 {
			bits &= 1<<23 - 1 // subnormal
		}
		lo, hi := math.Float32frombits(bits), math.Float32frombits(bits+1)
		if hi-hi != 0 {
			continue
		}
		tie := (float64(lo) + float64(hi)) / 2
		check(strconv.FormatFloat(tie, 'e', 120, 64)) // every digit: the tie itself
		for prec := 8; prec <= 20; prec++ {
			check(jsonForm(strconv.FormatFloat(tie, 'e', prec, 64)))
		}
		check(strconv.FormatFloat(-tie, 'f', -1, 64))
		check(strconv.FormatFloat(math.Nextafter(tie, 0), 'e', -1, 64))
		check(strconv.FormatFloat(math.Nextafter(tie, math.Inf(1)), 'e', -1, 64))
	}
	// Mantissas that wrap a uint64 accumulator: the multiples of 2^64 with 20
	// digits read as 0 (or a small remainder) once their last digit is in,
	// wherever the decimal point sits, trailing zeros or not.
	for k := uint64(1); k <= 5; k++ {
		for _, rem := range []uint64{0, 1, 7, 1 << 20} {
			m := new(big.Int).Lsh(new(big.Int).SetUint64(k), 64)
			m.Add(m, new(big.Int).SetUint64(rem))
			ds := m.String()
			for point := 0; point <= len(ds); point++ {
				lit := ds[:point] + "." + ds[point:]
				if point == 0 {
					lit = "0" + lit
				}
				lit = strings.TrimSuffix(lit, ".")
				for _, tail := range []string{"", "0", "000", "e-19", "e5", "0e-3"} {
					check(lit + tail)
					check("-" + lit + tail)
					check("0.000" + ds + tail)
				}
			}
		}
	}
	for _, lit := range []string{
		"1.8446744073709551616", "0.18446744073709551616", "3.6893488147419103232", "36893488147419103232e-19",
		"1.844674407370955161600", "0.184467440737095516160e1", "18446744073709551616", "18446744073709551616.0",
		"0", "-0", "0.0", "-0.0e5", "0e0", "0e99999", "1e99999", "1e-99999", "1e400", "-1e400",
		"3.4028235e38", "3.4028236e38", "3.40282356779733661637539395458142568448e38", "1e39",
		"1e-45", "7e-46", "7.006492321624085e-46", "1.1754942e-38", "1.17549435e-38",
		"16777217", "16777217.0", "16777217.0000001", "9007199254740993", "9007199254740992e22",
		"1e22", "1e23", "1e-22", "1e-23", "123456789012345678901234567890", "0.000000000000000000000000000001",
	} {
		check(lit)
	}
	t.Logf("checked %d literals, %d double-rounding traps", checked, doubleRoundingTraps)
	if checked < 1_000_000 {
		t.Fatalf("checked %d literals, want at least a million", checked)
	}
	if doubleRoundingTraps < 1000 {
		t.Fatalf("only %d literals round differently through float64: the ties were not exercised", doubleRoundingTraps)
	}
	// What is not a JSON number at all.
	for _, bad := range []string{"", "-", "+1", ".5", "1.", "1.e3", "1e", "1e+", "e5", "-e5", "--1", "NaN", "Infinity", " 1"} {
		if _, _, ok := parseFloat32([]byte(bad), 0); ok {
			t.Errorf("%q parsed as a JSON number", bad)
		}
	}
	// A JSON number ends where its grammar does; what follows is the
	// caller's to refuse.
	for lit, want := range map[string]int{"01": 1, "1.5.2": 3, "1e5e5": 3, "12abc": 2, "-0123": 2, "1_000": 1, "0x10": 1} {
		if _, next, ok := parseFloat32([]byte(lit), 0); !ok || next != want {
			t.Errorf("%q: consumed %d bytes (ok %v), want %d", lit, next, ok, want)
		}
	}
}

// responseCase is one response the encoder and json.Encoder both write.
type responseCase struct {
	name      string
	model, id string
	outputs   map[string]*dnnfusion.Tensor
	trace     *predictTrace
}

// TestPredictResponseBytesMatchEncodingJSON: the encoder's output is
// json.Encoder's, byte for byte.
func TestPredictResponseBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float32, 4096)
	for i := range random {
		f := math.Float32frombits(rng.Uint32())
		if f != f || f-f != 0 {
			f = float32(rng.NormFloat64())
		}
		random[i] = f
	}
	negZero := float32(math.Copysign(0, -1))
	// Many chunks of what formats differently: +0 (written directly), -0,
	// subnormals, %e magnitudes on both sides, ordinary values.
	mixed := make([]float32, 64*1024)
	for i := range mixed {
		switch rng.Intn(8) {
		case 0:
			mixed[i] = 0
		case 1:
			mixed[i] = negZero
		case 2:
			mixed[i] = math.Float32frombits(rng.Uint32()&(1<<23-1) | rng.Uint32()&(1<<31))
		case 3:
			mixed[i] = float32(rng.NormFloat64() * 1e-7)
		case 4:
			mixed[i] = float32(rng.NormFloat64() * 1e22)
		default:
			mixed[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
	}
	// What the pointwise benchmark workload serves: relu(2·σ(v)·x) over x in
	// (−1, 1), half of it +0.
	pointwise := make([]float32, 64*1024)
	for i := range pointwise {
		x, v := float32(2*rng.Float64()-1), rng.NormFloat64()
		pointwise[i] = max(2*float32(1/(1+math.Exp(-v)))*x, 0)
	}
	trace := traceOf(Timeline{BatchSize: 3, DecodeNs: 1234567, AdmissionNs: 890, QueueWaitNs: 0, BatchFormNs: 1100000, ExecuteNs: 42, TotalNs: 2000000})
	cases := []responseCase{
		{name: "one output", model: "micro-mlp", id: "abc123",
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice([]float32{0.25, -1.5, 3, 1e-3}, 2, 2)}},
		{name: "outputs come out in sorted-name order", model: "m", id: "id",
			outputs: map[string]*dnnfusion.Tensor{
				"z": dnnfusion.FromSlice([]float32{1}, 1), "a": dnnfusion.FromSlice([]float32{2, 3}, 2), "B": dnnfusion.FromSlice([]float32{4}, 1), "aa": dnnfusion.FromSlice([]float32{5}, 1)}},
		{name: "float32 formatting edges", model: "m", id: "id",
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice([]float32{0, negZero, 1e21, 9.99999e20, 1e-7, 1e-6, 9.999999e-7, math.MaxFloat32, -math.MaxFloat32,
				math.SmallestNonzeroFloat32, 1.1754944e-38, 1e-9, 1e-10, 1e10, 16777216, 0.1}, 16)}},
		{name: "random floats", model: "m", id: "id",
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice(random, 64, 64)}},
		{name: "64x1024 mixed magnitudes, signed zeros and subnormals", model: "m", id: "id",
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice(mixed, 64, 1024), "z": dnnfusion.FromSlice(mixed[:4097], 4097)}},
		{name: "64x1024 shaped like pointwise's output", model: "pointwise", id: "id",
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice(pointwise, 64, 1024)}},
		{name: "names that need escaping", model: `<b>&"m"\` + "\n\u2028\xff é", id: "r-1",
			outputs: map[string]*dnnfusion.Tensor{"<y>": dnnfusion.FromSlice([]float32{1}, 1), "y\t&": dnnfusion.FromSlice([]float32{2}, 1), "\x7f": dnnfusion.FromSlice([]float32{3}, 1)}},
		{name: "a scalar's empty shape is omitted", model: "m", id: "id",
			outputs: map[string]*dnnfusion.Tensor{"scalar": dnnfusion.FromSlice([]float32{7}), "vector": dnnfusion.FromSlice([]float32{7}, 1)}},
		{name: "no outputs", model: "m", id: "id", outputs: map[string]*dnnfusion.Tensor{}},
		{name: "with trace", model: "micro-mlp", id: "abc123", trace: trace,
			outputs: map[string]*dnnfusion.Tensor{"y": dnnfusion.FromSlice([]float32{1, 2, 3}, 3)}},
		{name: "with trace, no outputs", model: "m", id: "id", trace: trace, outputs: map[string]*dnnfusion.Tensor{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := predictResponse{Model: tc.model, RequestID: tc.id, Outputs: map[string]wireTensor{}, Trace: tc.trace}
			var names []string
			for name, tensor := range tc.outputs {
				oracle.Outputs[name] = wireTensor{Shape: tensor.Shape(), Data: tensor.Data()}
				names = append(names, name)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(oracle); err != nil {
				t.Fatal(err)
			}
			sort.Strings(names)
			// Every output is formatted in chunks on 1, 2 and 4 cores.
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := appendPredictResponse([]byte("stale bytes of the pooled buffer")[:0], tc.model, tc.id, names, &Result{outs: tc.outputs}, tc.trace)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					i := 0
					for i < min(len(got), len(want.Bytes())) && got[i] == want.Bytes()[i] {
						i++
					}
					t.Fatalf("GOMAXPROCS=%d: encoder and json.Encoder differ at byte %d:\n got %.400q\nwant %.400q",
						procs, i, got[max(0, i-100):], want.Bytes()[max(0, i-100):])
				}
			}
		})
	}
}

// TestPredictNonFiniteOutputIs500: a model output JSON cannot carry is a
// 500 that says which element of which output — not the 200 with an empty
// body json.Encoder's refusal used to leave behind a header already sent.
func TestPredictNonFiniteOutputIs500(t *testing.T) {
	r := NewRegistry()
	// log over 2x2, and over 3x4096: three chunks of the response encoder.
	for name, shape := range map[string][]int{"log": {2, 2}, "log-wide": {3, 4096}} {
		g := dnnfusion.NewGraph(name)
		x := g.AddInput("x", dnnfusion.ShapeOf(shape...))
		g.MarkOutputAs("y", g.Apply1(ops.NewLog(), x))
		m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Register(name, m, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() { ts.Close(); r.Close() })
	url := ts.URL + "/v1/models/log:predict"

	// A NaN in the wide output's last chunk and a -Inf in its second: the
	// error names the lower index, whichever chunk finishes first.
	wide := slices.Repeat([]string{"1"}, 3*4096)
	wide[2*4096+5], wide[4096+9] = "-1", "0"
	cases := []struct{ model, data, element, value string }{
		{"log", "[1,1,-1,1]", "element 2", "NaN"}, // log of a negative
		{"log", "[1,0,1,1]", "element 1", "-Inf"}, // log of zero
		{"log-wide", "[" + strings.Join(wide, ",") + "]", "element 4105", "-Inf"},
	}
	for _, tc := range cases {
		url := ts.URL + "/v1/models/" + tc.model + ":predict"
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(`{"inputs":{"x":{"data":`+tc.data+`}}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", "nonfinite-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil {
			t.Fatalf("data %.60s: status %d, body %v (%v), want a 500 with a JSON error body", tc.data, resp.StatusCode, body, err)
		}
		msg, _ := body["error"].(string)
		for _, want := range []string{`output "y"`, tc.element, tc.value} {
			if !strings.Contains(msg, want) {
				t.Errorf("data %.60s: error %q does not name %s", tc.data, msg, want)
			}
		}
		if body["request_id"] != "nonfinite-1" {
			t.Errorf("data %.60s: error body request_id = %v", tc.data, body["request_id"])
		}
	}
	// The same server still answers a finite request, whole.
	out := postJSON(t, url, `{"inputs":{"x":{"data":[1,1,1,1]}}}`, http.StatusOK)
	if data := out["outputs"].(map[string]any)["y"].(map[string]any)["data"].([]any); len(data) != 4 || data[0].(float64) != 0 {
		t.Fatalf("finite request after the failures = %v", out)
	}
	_, fams := scrape(t, ts.URL)
	if n := fams["dnnf_http_requests_total"].series[`dnnf_http_requests_total{code="500",route="predict"}`]; n != float64(len(cases)) {
		t.Errorf(`dnnf_http_requests_total{code="500",route="predict"} = %v, want %d`, n, len(cases))
	}
}

// discardWriter is a ResponseWriter that keeps nothing but the status, so
// what a request allocates is the handler's doing alone.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestPredictAllocations: a warmed :predict allocates a small constant
// number of objects, and none of them grows with the tensors it carries.
func TestPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	// Pooled buffers must outlive the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	t.Run("micro-mlp over httptest.NewRecorder", func(t *testing.T) {
		m := compileMicro(t, models.MicroMLP)
		r := NewRegistry()
		defer r.Close()
		if _, err := r.Register("micro-mlp", m, Config{Prewarm: true}); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(r)
		body, err := json.Marshal(predictRequest{Inputs: map[string]wireTensor{
			"x": {Data: microRequest(t, m, 5)["x"].Data()}}})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/micro-mlp:predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		serve()
		// 29 measured: the recorder and the request are 17 of them; the
		// handler's own are the request ID, the status writer, the body
		// cap and four header values. Counting the request, reading,
		// decoding, running and encoding allocate nothing.
		const limit = 35
		if allocs := testing.AllocsPerRun(200, serve); allocs > limit {
			t.Errorf("a warmed :predict allocates %.0f objects, want at most %d", allocs, limit)
		}
	})

	t.Run("bytes do not scale with the tensors", func(t *testing.T) {
		m := compileWide(t)
		r := NewRegistry()
		defer r.Close()
		if _, err := r.Register("wide", m, Config{Prewarm: true}); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(r)
		body, err := json.Marshal(predictRequest{Inputs: map[string]wireTensor{
			"x": {Data: microRequest(t, m, 6)["x"].Data()}}})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{header: http.Header{}}
		serve := func() {
			req, err := http.NewRequest(http.MethodPost, "/v1/models/wide:predict", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			clear(w.header)
			srv.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("status %d", w.status)
			}
		}
		// Pools are per P: warm the forks and encoder scratch of every P a
		// request or its codec helpers may run on.
		for range 50 {
			serve()
		}
		// The median of single requests: a request that wakes on another P
		// after its batch ran finds that P's pool slot empty once, and that
		// one refill is not what a request costs.
		perRequest := make([]uint64, 21)
		objects := make([]uint64, len(perRequest))
		for i := range perRequest {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serve()
			runtime.ReadMemStats(&after)
			perRequest[i] = after.TotalAlloc - before.TotalAlloc
			objects[i] = after.Mallocs - before.Mallocs
		}
		sort.Slice(perRequest, func(i, j int) bool { return perRequest[i] < perRequest[j] })
		slices.Sort(objects)
		// 16 measured: the codec's helper goroutines start from pooled forks
		// and allocate nothing, and per-request goroutines or closures must
		// not creep in past 4 more.
		if median := objects[len(objects)/2]; median > 16+4 {
			t.Errorf("a warmed :predict of a %d KiB body allocates %d objects, want at most %d",
				len(body)>>10, median, 16+4)
		}
		// The input tensor is 256 KiB and the body larger; the handler's own
		// objects come to about 2 KiB.
		if median := perRequest[len(perRequest)/2]; median > 8<<10 {
			t.Errorf("a warmed :predict of a %d KiB body allocates %d bytes, want under 8 KiB: something scales with the tensors",
				len(body)>>10, median)
		}
	})
}
