package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"dnnfusion"
)

// The :predict wire codec: the one request decoder and the one response
// encoder of the predict path. The wire format is the JSON documented on
// Server; what changes against encoding/json is only how it is read and
// written — a request body is scanned once, each number run parsed straight
// into a pooled input tensor, and a response is appended into a pooled byte
// slice and written once. encoding/json remains the definition of both
// directions: the decoder accepts exactly the bodies
// json.Decoder+DisallowUnknownFields accepts for
//
//	struct{ Inputs map[string]struct{ Shape []int; Data []float32 } }
//
// with bit-identical values, and the encoder's bytes equal json.Encoder's
// (FuzzPredictBody, TestPredictBodyChunked, TestParseFloat32MatchesStrconv,
// TestAppendFloat32MatchesStrconv and
// TestPredictResponseBytesMatchEncodingJSON hold it to that).
//
// A large tensor is parsed and formatted in chunks on up to GOMAXPROCS
// goroutines (forChunks): a request's client waits for the response, so
// the codec has the other cores to itself.

// bufPool recycles the byte slices request bodies are read into and
// responses are built in.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// The sizes a "data" array and an output's elements are cut into. A tensor
// of one chunk is parsed or formatted on the calling goroutine alone. Tests
// shrink decodeChunkBytes so that small bodies cross chunk boundaries.
var decodeChunkBytes = 32 << 10

const encodeChunkElems = 4 << 10

// chunked is work cut into chunks that may run in any order, each on any
// goroutine, each touching only its own part of the job.
type chunked interface{ chunk(c int) }

// forChunks runs job.chunk(c) for every c in [0, n) on the calling goroutine
// and up to GOMAXPROCS-1 helpers, all pulling chunks from one cursor (a core
// that is busy elsewhere, with the GC's mark worker say, then takes fewer),
// and returns once every chunk has run.
func forChunks(n int, job chunked) {
	workers := 1
	if n > 1 {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
	if workers == 1 {
		for c := range n {
			job.chunk(c)
		}
		return
	}
	f := forkPool.Get().(*fork)
	f.job, f.n = job, n
	f.next.Store(0)
	f.wg.Add(workers - 1)
	for range workers - 1 {
		go f.help()
	}
	f.run()
	f.wg.Wait()
	f.job = nil
	forkPool.Put(f)
}

// fork is one forChunks call's shared cursor.
type fork struct {
	job  chunked
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
	// help is a helper's body, made once per fork: a go statement on a
	// stored func value allocates nothing, one on a method value does.
	help func()
}

var forkPool = sync.Pool{New: func() any {
	f := new(fork)
	f.help = func() {
		defer f.wg.Done()
		f.run()
	}
	return f
}}

func (f *fork) run() {
	for c := int(f.next.Add(1)) - 1; c < f.n; c = int(f.next.Add(1)) - 1 {
		f.job.chunk(c)
	}
}

// readBody reads body to its end into buf[:0], growing it as needed. sizeHint
// (a Content-Length, already clamped by the caller) sizes the first read so
// a body of the declared length needs no regrowth.
func readBody(body io.Reader, buf []byte, sizeHint int64) ([]byte, error) {
	buf = buf[:0]
	if need := int(sizeHint) + 1; cap(buf) < need { // +1: room for the read that reports EOF
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// predictInputs is one request's decoded inputs: a tensor of the declared
// shape for every model input, from the host's pool.
type predictInputs struct {
	tensors map[string]*dnnfusion.Tensor
	// By inSpecs index: the request named this input, and what was wrong
	// with the last member that did (nil: nothing).
	seen  []bool
	errs  []error
	shape []int   // scratch for a wire "shape", as long as the highest declared rank
	run   dataRun // scratch for a wire "data" array's chunks
}

func (h *Host) newPredictInputs() *predictInputs {
	in := &predictInputs{
		tensors: make(map[string]*dnnfusion.Tensor, len(h.inSpecs)),
		seen:    make([]bool, len(h.inSpecs)),
		errs:    make([]error, len(h.inSpecs)),
	}
	rank := 0
	for _, spec := range h.inSpecs {
		in.tensors[spec.Name] = dnnfusion.NewTensor(spec.Shape...)
		rank = max(rank, len(spec.Shape))
	}
	in.shape = make([]int, rank)
	return in
}

// predictDecoder scans one :predict body into in. What json.Decoder would
// refuse — a syntax error, an unknown field, a value of the wrong JSON type,
// a number its Go type cannot hold — fails the request at the byte where it
// is found. What the decoded request would then be refused for — an unknown
// input, a shape or element count other than the declared one — is a verdict
// on one member of "inputs" and is returned once the body has been read: a
// later member of the same name replaces an earlier one, verdict included.
type predictDecoder struct {
	h  *Host
	in *predictInputs
	b  []byte
	i  int
	// unknown is the verdict on the first member naming no model input.
	unknown error
}

var (
	keyInputs = []byte("inputs")
	keyShape  = []byte("shape")
	keyData   = []byte("data")
	litNull   = []byte("null")
	comma     = []byte(",")
)

// decodePredict fills in from body. Bytes after the top-level value are
// ignored, as json.Decoder.Decode ignores them.
func (h *Host) decodePredict(body []byte, in *predictInputs) error {
	d := predictDecoder{h: h, in: in, b: body}
	d.forget()
	isObject, err := d.open('{')
	if err != nil {
		return err
	}
	if isObject {
		err = d.object(func(key []byte) error {
			if !bytes.EqualFold(key, keyInputs) { // encoding/json folds field names
				return d.unknownField(key)
			}
			return d.inputs()
		})
		if err != nil {
			return err
		}
	}
	if d.unknown != nil {
		return d.unknown
	}
	for i, spec := range h.inSpecs {
		if !in.seen[i] {
			return errMissingInput(spec.Name)
		}
		if in.errs[i] != nil {
			return in.errs[i]
		}
	}
	return nil
}

// forget drops every input read so far.
func (d *predictDecoder) forget() {
	clear(d.in.seen)
	clear(d.in.errs)
	d.unknown = nil
}

func (d *predictDecoder) syntax(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("decoding request body: unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("decoding request body: invalid character %q at byte %d, want %s", d.b[d.i], d.i, want)
}

func (d *predictDecoder) unknownField(key []byte) error {
	return fmt.Errorf("decoding request body: json: unknown field %q", key)
}

// peek skips JSON whitespace and returns the byte under the cursor, 0 at the
// end of the body (a NUL byte is valid nowhere outside a string either).
func (d *predictDecoder) peek() byte {
	if d.i = skipSpace(d.b, d.i); d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON whitespace, len(b) if there is none.
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return i
		}
	}
	return i
}

// open starts a value that must be an object or array (bracket '{' or '[')
// or null: true with the cursor past the bracket, false with it past null.
func (d *predictDecoder) open(bracket byte) (bool, error) {
	switch c := d.peek(); {
	case c == bracket:
		d.i++
		return true, nil
	case c == 'n' && bytes.HasPrefix(d.b[d.i:], litNull):
		d.i += len(litNull)
		return false, nil
	}
	return false, d.syntax(fmt.Sprintf("%q or null", bracket))
}

// object walks the members of the object whose '{' was just consumed,
// calling member for each with the unquoted key and the cursor at the
// member's value; member consumes the value.
func (d *predictDecoder) object(member func(key []byte) error) error {
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("an object key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("':' after an object key")
		}
		d.i++
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("',' or '}' after an object member")
		}
	}
}

// key reads the string whose opening quote is under the cursor. A key of
// plain ASCII is returned as the body's own bytes; one with escapes or
// non-ASCII bytes is unquoted by encoding/json (\uXXXX, surrogate pairs,
// U+FFFD for invalid UTF-8).
func (d *predictDecoder) key() ([]byte, error) {
	start := d.i
	plain := true
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.b[start+1 : d.i-1], nil
			}
			var s string
			if err := json.Unmarshal(d.b[start:d.i], &s); err != nil {
				return nil, fmt.Errorf("decoding request body: object key at byte %d: %w", start, err)
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			d.i++
		case c < ' ' || c >= 0x80:
			plain = false
		}
	}
	return nil, d.syntax("'\"' closing an object key")
}

// inputs reads the "inputs" member: null drops every input read so far (it
// nils the map encoding/json decodes into), an object adds to them.
func (d *predictDecoder) inputs() error {
	isObject, err := d.open('{')
	if err != nil {
		return err
	}
	if !isObject {
		d.forget()
		return nil
	}
	return d.object(d.tensor)
}

// tensor reads one {"shape": ..., "data": ...} member of "inputs" into the
// pooled tensor of that input. Both fields may be absent or null: the
// declared shape, zeros.
func (d *predictDecoder) tensor(name []byte) error {
	idx := -1
	var spec *TensorSpec
	var data []float32 // stays empty for an unknown input: its member is only checked
	for i := range d.h.inSpecs {
		if d.h.inSpecs[i].Name == string(name) {
			idx, spec = i, &d.h.inSpecs[i]
			data = d.in.tensors[spec.Name].Data()
			break
		}
	}
	// A field's count is -1 while absent or null. Its high-water mark is
	// how far an earlier duplicate of the field wrote: encoding/json decodes
	// a repeated field into the slice it already holds, and a null element
	// there keeps what the slot held.
	shapeN, shapeHi, dataN, dataHi := -1, 0, -1, 0
	isObject, err := d.open('{')
	if err != nil {
		return err
	}
	if isObject {
		err = d.object(func(key []byte) (err error) {
			switch {
			case bytes.EqualFold(key, keyShape):
				shapeN, shapeHi, err = d.shape(shapeHi)
			case bytes.EqualFold(key, keyData):
				dataN, dataHi, err = d.data(data, dataHi)
			default:
				err = d.unknownField(key)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if spec == nil {
		if d.unknown == nil {
			d.unknown = d.h.errUnknownInput(string(name))
		}
		return nil
	}
	d.in.seen[idx], d.in.errs[idx] = true, nil
	switch {
	case shapeN > len(spec.Shape):
		d.in.errs[idx] = fmt.Errorf("%w: input %q wants shape %v, got a shape of rank %d",
			dnnfusion.ErrShapeMismatch, spec.Name, spec.Shape, shapeN)
	case shapeN >= 0 && !dnnfusion.Shape(d.in.shape[:shapeN]).Equal(spec.Shape):
		d.in.errs[idx] = errShape(spec, d.in.shape[:shapeN])
	case dataN < 0:
		clear(data)
	case dataN != len(data):
		d.in.errs[idx] = fmt.Errorf("%w: input %q has %d data elements for shape %v (%d elements)",
			dnnfusion.ErrShapeMismatch, spec.Name, dataN, spec.Shape, len(data))
	}
	return nil
}

// array walks the elements of the array whose '[' was just consumed, calling
// elem with each element's index, the cursor on its first byte and null set
// when it is the literal null (already consumed); elem consumes anything
// else. It returns the element count. It reads "shape"; a "data" array has a
// run loop of its own (dataRun.chunk).
func (d *predictDecoder) array(elem func(i int, null bool) error) (int, error) {
	if d.peek() == ']' {
		d.i++
		return 0, nil
	}
	for n := 0; ; {
		null := d.peek() == 'n' && bytes.HasPrefix(d.b[d.i:], litNull)
		if null {
			d.i += len(litNull)
		}
		if err := elem(n, null); err != nil {
			return 0, err
		}
		n++
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return n, nil
		default:
			return 0, d.syntax("',' or ']' after an array element")
		}
	}
}

// shape reads a "shape" member into the scratch shape (the dimensions past
// the highest declared rank only counted: no declared shape has them).
func (d *predictDecoder) shape(hi int) (n, newHi int, err error) {
	isArray, err := d.open('[')
	if err != nil || !isArray {
		return -1, 0, err
	}
	dims := d.in.shape
	n, err = d.array(func(i int, null bool) error {
		if null {
			if i >= hi && i < len(dims) {
				dims[i] = 0
			}
			return nil
		}
		start := d.i
		for d.i < len(d.b) && (d.b[d.i] == '-' || '0' <= d.b[d.i] && d.b[d.i] <= '9') {
			d.i++
		}
		// A JSON number that is not an integer ends on '.', 'e' or 'E' here
		// and fails array's delimiter check; ParseInt refuses "-", "1-2" and
		// what does not fit. "01" is not JSON.
		v, err := strconv.ParseInt(string(d.b[start:d.i]), 10, 0)
		digits := bytes.TrimPrefix(d.b[start:d.i], []byte{'-'})
		if err != nil || len(digits) > 1 && digits[0] == '0' {
			d.i = start
			return d.syntax("an integer dimension")
		}
		if i < len(dims) {
			dims[i] = int(v)
		}
		return nil
	})
	return n, max(hi, n), err
}

// data reads a "data" member straight into the input's tensor. Elements the
// tensor has no room for are checked and counted, not stored.
//
// The array's span ends at the first ']' after its '[': a valid data array
// holds none before its own, and a serial scan ends the array there too.
// The span is cut at commas into chunks of about decodeChunkBytes, each
// chunk's first element index counted from the commas before it, and the
// chunks are parsed by forChunks. Every chunk before the earliest failing
// one parsed cleanly, so that chunk's first error is the one a serial scan
// would stop at.
func (d *predictDecoder) data(data []float32, hi int) (n, newHi int, err error) {
	isArray, err := d.open('[')
	if err != nil || !isArray {
		return -1, 0, err
	}
	end := len(d.b)
	if j := bytes.IndexByte(d.b[d.i:], ']'); j >= 0 {
		end = d.i + j
	}
	if d.peek() == ']' {
		d.i++
		return 0, hi, nil
	}
	r := &d.in.run
	r.b, r.data, r.hi = d.b, data, hi
	r.chunks = slices.Grow(r.chunks[:0], (end-d.i)/decodeChunkBytes+1)
	for lo := d.i; ; {
		cut := end
		if end-lo > decodeChunkBytes {
			if j := bytes.IndexByte(d.b[lo+decodeChunkBytes:end], ','); j >= 0 {
				cut = lo + decodeChunkBytes + j
			}
		}
		r.chunks = append(r.chunks, dataChunk{lo: lo, end: cut, first: n, errAt: -1})
		n += bytes.Count(d.b[lo:cut], comma) + 1
		if cut == end {
			break
		}
		lo = cut + 1
	}
	forChunks(len(r.chunks), r)
	r.b, r.data = nil, nil
	for _, ch := range r.chunks {
		if ch.errAt >= 0 {
			d.i = ch.errAt
			return 0, 0, d.syntax(ch.want)
		}
	}
	d.i = end
	if end == len(d.b) {
		return 0, 0, d.syntax("',' or ']' after an array element")
	}
	d.i++
	return n, max(hi, n), nil
}

// dataRun is one "data" array being parsed in chunks into a tensor's data.
type dataRun struct {
	b      []byte
	data   []float32
	hi     int // the high-water mark: a null below it keeps what the slot holds
	chunks []dataChunk
}

// dataChunk is the bytes [lo, end) of a data array: whole elements, numbered
// from first, with the cut ',' (or the array's end) at end.
type dataChunk struct {
	lo, end, first int
	// The chunk's first error: its byte (-1: none) and what was wanted there.
	errAt int
	want  string
}

// chunk is the data array's run loop: whitespace, then a number or null,
// then whitespace, then ',' or the chunk's end, repeated.
func (r *dataRun) chunk(c int) {
	ch := &r.chunks[c]
	b, data := r.b, r.data
	for i, k := ch.lo, ch.first; ; k++ {
		i = skipSpace(b, i)
		if i < len(b) && b[i] == 'n' && bytes.HasPrefix(b[i:], litNull) {
			i += len(litNull)
			if k >= r.hi && k < len(data) {
				data[k] = 0
			}
		} else {
			f, next, ok := parseFloat32(b, i)
			if !ok {
				ch.errAt, ch.want = i, "a number that fits float32"
				return
			}
			if k < len(data) {
				data[k] = f
			}
			i = next
		}
		// Nothing an element is made of is a ',' or ']', so the loop meets
		// the chunk's end exactly.
		if i = skipSpace(b, i); i == ch.end {
			return
		}
		if b[i] != ',' {
			ch.errAt, ch.want = i, "',' or ']' after an array element"
			return
		}
		i++
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat32 reads the JSON number that starts at b[i] and returns it
// rounded exactly as strconv.ParseFloat(s, 32) rounds it — what
// encoding/json calls — with the index of the byte after it. ok is false
// when b[i:] does not start with a JSON number or the number overflows
// float32. What follows the number is the caller's to check.
//
// The common literal takes an exact path: a mantissa below 2^53 and a
// power of ten up to 22 are both exact float64s, so their product or
// quotient is the correctly rounded float64 of the decimal, and rounding
// that to float32 is the correctly rounded float32 of the decimal unless the
// float64 sits exactly on a tie between two float32s (the decimal may lie
// to either side of it). Such a value is between 1e-22 and 2^53·1e22, inside
// float32's normal range, so a tie is the float64s whose 29 bits below
// float32's precision are 1000…0. Ties and everything longer go to strconv.
func parseFloat32(b []byte, i int) (f float32, next int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // decimal digits read so far, leading zeros dropped
	digits := 0     // how many of them are in mant; a 20th may not fit
	exp10 := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, start, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			// Leading zeros are not significant; every digit after the first
			// nonzero one is, a zero that a wrapped mant happens to read as
			// included (1.8446744073709551616 is 2^64 in its 20th digit).
			if digits > 0 || mant != 0 {
				digits++
			}
		}
		if i == fracStart {
			return 0, start, false
		}
		exp10 = fracStart - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		expStart, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // past any float32; keeps e from overflowing
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return 0, start, false
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if digits <= 19 && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		v := float64(mant)
		if exp10 < 0 {
			v /= pow10[-exp10]
		} else {
			v *= pow10[exp10]
		}
		if math.Float64bits(v)&(1<<29-1) != 1<<28 {
			if neg {
				v = -v
			}
			return float32(v), i, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(v), i, err == nil
}

// nonFiniteOutputError reports a model output element JSON cannot carry.
type nonFiniteOutputError struct {
	model, output string
	index         int
	value         float32
}

func (e *nonFiniteOutputError) Error() string {
	return fmt.Sprintf("serve: model %q output %q element %d is %v, which JSON cannot represent",
		e.model, e.output, e.index, e.value)
}

// appendPredictResponse appends the :predict response body — the bytes
// json.Encoder writes for
//
//	struct {
//		Model     string                 `json:"model"`
//		RequestID string                 `json:"request_id"`
//		Outputs   map[string]struct {
//			Shape []int     `json:"shape,omitempty"`
//			Data  []float32 `json:"data,omitempty"`
//		} `json:"outputs"`
//		Trace *predictTrace `json:"trace,omitempty"`
//	}
//
// trailing newline included. outputs is the model's output names in sorted
// order. A NaN or infinite output element, which encoding/json refuses, is a
// *nonFiniteOutputError naming the lowest such index.
//
// An output's elements are formatted in chunks of encodeChunkElems by
// forChunks, each into its own part of a pooled scratch, and the parts are
// appended in order.
func appendPredictResponse(dst []byte, model, id string, outputs []string, res *Result, trace *predictTrace) ([]byte, error) {
	run := floatRunPool.Get().(*floatRun)
	defer floatRunPool.Put(run)
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, model)
	dst = append(dst, `,"request_id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"outputs":{`...)
	for k, name := range outputs {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, name)
		dst = append(dst, ':', '{')
		t := res.outs[name]
		shape, data := t.Shape(), t.Data()
		if len(shape) > 0 {
			dst = append(dst, `"shape":[`...)
			for i, dim := range shape {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(dim), 10)
			}
			dst = append(dst, ']')
		}
		if len(data) > 0 {
			if len(shape) > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `"data":[`...)
			n := (len(data) + encodeChunkElems - 1) / encodeChunkElems
			if cap(run.chunks) < n {
				run.chunks = make([]floatChunk, n)
			}
			if need := len(data) * maxFloatText; cap(run.text) < need {
				run.text = make([]byte, 0, need)
			}
			run.data, run.chunks = data, run.chunks[:n]
			forChunks(n, run)
			run.data = nil
			for c, ch := range run.chunks {
				if ch.bad >= 0 {
					return dst, &nonFiniteOutputError{model: model, output: name, index: ch.bad, value: data[ch.bad]}
				}
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, ch.buf...)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, '}')
	if trace != nil {
		dst = append(dst, `,"trace":{"batch_size":`...)
		dst = strconv.AppendInt(dst, int64(trace.BatchSize), 10)
		dst = append(dst, `,"stages":[`...)
		for i, st := range trace.Stages {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"stage":`...)
			dst = appendJSONString(dst, st.Stage)
			dst = append(dst, `,"ns":`...)
			dst = strconv.AppendInt(dst, st.Ns, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']', '}')
	}
	return append(dst, '}', '\n'), nil
}

// floatRun is one output's elements being formatted in chunks: a response's
// scratch, pooled apart from bufPool so that the text of a large output is
// not what the next request body is read into.
type floatRun struct {
	data []float32
	// text holds maxFloatText bytes per element, and chunk c formats into
	// the part that belongs to its elements: one allocation when a pool
	// refills, not one per chunk per doubling.
	text   []byte
	chunks []floatChunk
}

// maxFloatText bounds the text of an element and its ',': '-' and the 21
// digits of a float32 below 1e21. A longer text would only reallocate.
const maxFloatText = 23

// floatChunk is one chunk's elements formatted and ','-separated, and the
// index of its first non-finite element (-1: none), where formatting stopped.
type floatChunk struct {
	buf []byte
	bad int
}

var floatRunPool = sync.Pool{New: func() any { return new(floatRun) }}

func (r *floatRun) chunk(c int) {
	lo := c * encodeChunkElems
	hi := min(lo+encodeChunkElems, len(r.data))
	// Appended to in a local: neighbouring chunks' headers share cache
	// lines, and other cores are writing theirs.
	buf, bad := r.text[lo*maxFloatText:lo*maxFloatText:hi*maxFloatText], -1
	for i, f := range r.data[lo:hi] {
		if f-f != 0 { // NaN or ±Inf
			bad = lo + i
			break
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloat32(buf, f)
	}
	r.chunks[c] = floatChunk{buf: buf, bad: bad}
}

// appendJSONString appends s as a JSON string. Printable ASCII that needs no
// escape, HTML's <, > and & included, is copied; anything else goes through
// encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, err := json.Marshal(s)
			if err != nil { // unreachable: a string always marshals
				panic(err)
			}
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
