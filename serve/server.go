package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnnfusion"
	"dnnfusion/internal/obs"
)

// Server is the HTTP front-end over a model repository. It implements
// http.Handler with six endpoints, JSON but for the last two:
//
//	GET  /healthz                     — liveness plus registered-model count
//	GET  /v1/models                   — list models (name, loaded, stats)
//	GET  /v1/models/{name}            — one model's full serving metadata
//	POST /v1/models/{name}:predict    — run one inference
//	GET  /metrics                     — Prometheus text exposition (0.0.4)
//	GET  /debug/pprof/*               — Go profiling (only when Pprof is set)
//
// Every response carries an X-Request-ID header: the sanitized client
// X-Request-ID when one was sent, a freshly generated ID otherwise. Predict
// responses echo it in the body as request_id — error bodies too, so a shed
// 429 or 503 is attributable in client logs — and ?trace=1 on :predict adds
// a per-stage timing block (decode, admission, queue wait, batch formation,
// execute, respond) from the host's request Timeline.
//
// A predict request body maps input names to tensors:
//
//	{"inputs": {"x": {"shape": [16, 64], "data": [0.1, ...]}}}
//
// Shape may be omitted (the model's declared shape is used) and data may be
// omitted (zeros), so {"inputs": {"x": {}}} is the minimal smoke request.
// The response mirrors the form: {"model": ..., "outputs": {"y": {"shape":
// ..., "data": [...]}}}.
//
// Errors map the package taxonomy to status codes: unknown model names are
// 404 (dnnfusion.ErrUnknownModel), malformed requests — unknown/missing
// inputs, shape mismatches, undecodable JSON — are 400, oversized bodies
// 413, shed requests 429 (queue full) or 503 (in-flight ceiling, drain,
// eviction) with a Retry-After hint, and everything else is 500. Every
// error body is {"error": "..."}.
type Server struct {
	reg *Registry
	// MaxBodyBytes caps a :predict request body (http.MaxBytesReader; an
	// oversized body gets 413 and the connection closes instead of a slow
	// client holding it while streaming an unbounded payload). 0 means
	// DefaultMaxBodyBytes; negative disables the cap. Set before serving.
	MaxBodyBytes int64
	// Pprof exposes net/http/pprof under /debug/pprof/ when set (the
	// dnnf-serve -pprof flag). Off by default: profiling endpoints reveal
	// internals and cost CPU, so they are opt-in. Set before serving.
	Pprof bool
	// draining flips when Drain is called: :predict stops admitting (503
	// + Retry-After) while /healthz keeps answering and reports the
	// drain, so load balancers see the instance leaving before its
	// in-flight work finishes.
	draining atomic.Bool
	// httpCounts holds the dnnf_http_requests_total series of each (route,
	// code) seen, so counting a request is a map read rather than a label
	// lookup under the metric registry's lock.
	httpMu     sync.RWMutex
	httpCounts map[httpKey]*obs.Counter
}

// httpKey names one dnnf_http_requests_total series.
type httpKey struct {
	route string
	code  int
}

// DefaultMaxBodyBytes caps :predict bodies unless Server.MaxBodyBytes
// overrides it. 8 MiB holds a batch-1 request of ~2M float32 elements in
// JSON; real deployments tune it to their largest declared input.
const DefaultMaxBodyBytes int64 = 8 << 20

// NewServer wraps a repository in the HTTP front-end.
func NewServer(reg *Registry) *Server { return &Server{reg: reg} }

// Drain puts the server into draining mode: every subsequent :predict is
// refused with 503 + Retry-After while /healthz keeps answering (status
// "draining"). Pair with http.Server.Shutdown: Drain first so new work is
// refused deterministically even on kept-alive connections, then Shutdown
// waits for in-flight requests.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Registry returns the repository the server fronts.
func (s *Server) Registry() *Registry { return s.reg }

const modelsPrefix = "/v1/models"

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Request IDs are minted (or adopted) at the edge so every log line,
	// response header, and error body below this point is attributable.
	// The statusWriter records the response code for the per-route HTTP
	// counter without changing what the client sees.
	id := requestID(r)
	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set("X-Request-ID", id)
	path := r.URL.Path
	route := "other"
	switch {
	case path == "/healthz":
		route = "healthz"
		s.handleHealth(sw, r)
	case path == "/metrics":
		route = "metrics"
		s.handleMetrics(sw, r)
	case path == "/debug/pprof" || strings.HasPrefix(path, "/debug/pprof/"):
		route = "pprof"
		s.handlePprof(sw, r)
	case path == modelsPrefix || path == modelsPrefix+"/":
		route = "models"
		s.handleList(sw, r)
	case strings.HasPrefix(path, modelsPrefix+"/"):
		rest := strings.TrimPrefix(path, modelsPrefix+"/")
		if name, ok := strings.CutSuffix(rest, ":predict"); ok {
			route = "predict"
			s.handlePredict(sw, r, name, id)
		} else {
			route = "models"
			s.handleInfo(sw, r, rest)
		}
	default:
		writeError(sw, http.StatusNotFound, fmt.Errorf("no such endpoint %q", path))
	}
	s.countHTTP(route, sw.code())
}

// requestID adopts the client's X-Request-ID when it is well-formed (so a
// caller can correlate across services) and mints a fresh random ID
// otherwise.
func requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts client-supplied IDs only when they are short
// and drawn from a log-safe alphabet — anything else is discarded (a
// header echoed into JSON bodies and logs must not smuggle arbitrary
// bytes). Returns "" for rejects.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// statusWriter captures the response status for the per-route HTTP counter.
// The first WriteHeader (or implicit 200 on first Write) wins, matching
// net/http semantics.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.status = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.status = true, http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) code() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.status
}

// Flush passes through so streaming responses (pprof trace) keep working
// behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) countHTTP(route string, code int) {
	key := httpKey{route, code}
	s.httpMu.RLock()
	c := s.httpCounts[key]
	s.httpMu.RUnlock()
	if c == nil {
		c = s.reg.obs.Counter("dnnf_http_requests_total", helpHTTPRequests, "route", route, "code", strconv.Itoa(code))
		s.httpMu.Lock()
		if s.httpCounts == nil {
			s.httpCounts = map[httpKey]*obs.Counter{}
		}
		s.httpCounts[key] = c
		s.httpMu.Unlock()
	}
	c.Inc()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("metrics is GET-only"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handlePprof serves net/http/pprof without claiming http.DefaultServeMux:
// the Server routes everything itself, so the profiling handlers are
// invoked directly and only when opted in.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.Pprof {
		writeError(w, http.StatusNotFound, errors.New("pprof is disabled (run dnnf-serve with -pprof)"))
		return
	}
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// healthHost is one loaded host's overload-control state on /healthz: its
// queue and the requests it shed or dropped as expired, read without
// forcing any lazy build (unloaded hosts are omitted).
type healthHost struct {
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Shed          uint64 `json:"shed"`
	Expired       uint64 `json:"expired"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("healthz is GET-only"))
		return
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	names := s.reg.Names()
	hosts := map[string]healthHost{}
	var shed, expired uint64
	for _, name := range names {
		h, err := s.reg.Resolve(name)
		if err != nil || !h.Loaded() {
			continue
		}
		var info Info
		h.controlState(&info)
		st := h.st.snapshot()
		shed += st.Shed
		expired += st.Expired
		hosts[name] = healthHost{
			QueueDepth:    info.QueueDepth,
			QueueCapacity: info.QueueCapacity,
			Shed:          st.Shed,
			Expired:       st.Expired,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"models":         len(names),
		"build_failures": s.reg.BuildFailures(),
		"in_flight":      s.reg.InFlight(),
		"max_in_flight":  s.reg.MaxInFlight(),
		"saturated":      s.reg.Saturated(),
		"shed":           shed,
		"expired":        expired,
		"hosts":          hosts,
	})
}

// listEntry is one model's row in GET /v1/models. Stats appear only for
// loaded models: listing must stay cheap and never force a lazy build.
type listEntry struct {
	Name   string `json:"name"`
	Loaded bool   `json:"loaded"`
	Stats  *Stats `json:"stats,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("model listing is GET-only"))
		return
	}
	entries := []listEntry{}
	for _, name := range s.reg.Names() {
		h, err := s.reg.Resolve(name)
		if err != nil {
			continue // evicted between Names and Resolve
		}
		e := listEntry{Name: name, Loaded: h.Loaded()}
		if e.Loaded {
			st := h.st.snapshot()
			e.Stats = &st
		}
		entries = append(entries, e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": entries})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("model info is GET-only"))
		return
	}
	h, err := s.reg.Resolve(name)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	info, err := h.Info()
	if err != nil {
		writeBuildError(w, statusFor(err), name, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// predictTrace is the ?trace=1 timing block: the request's passage through
// the serving pipeline, stage by stage, in nanoseconds.
type predictTrace struct {
	BatchSize int          `json:"batch_size"`
	Stages    []traceStage `json:"stages"`
}

type traceStage struct {
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// traceOf renders a host Timeline as the wire trace. respond is the
// remainder of the admission-to-result total after the measured stages —
// result scatter and hand-back — clamped at zero against clock skew between
// stamps. Encoding the response is not in it: that time cannot ride in the
// body it produces (dnnf_encode_seconds on /metrics has it).
func traceOf(tl Timeline) *predictTrace {
	respond := tl.TotalNs - tl.AdmissionNs - tl.QueueWaitNs - tl.BatchFormNs - tl.ExecuteNs
	if respond < 0 {
		respond = 0
	}
	return &predictTrace{
		BatchSize: tl.BatchSize,
		Stages: []traceStage{
			{Stage: "decode", Ns: tl.DecodeNs},
			{Stage: "admission", Ns: tl.AdmissionNs},
			{Stage: "queue_wait", Ns: tl.QueueWaitNs},
			{Stage: "batch_formation", Ns: tl.BatchFormNs},
			{Stage: "execute", Ns: tl.ExecuteNs},
			{Stage: "respond", Ns: respond},
		},
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, name, id string) {
	begin := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("predict is POST-only"))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	h, err := s.reg.Resolve(name)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if _, err := h.Model(); err != nil {
		writeBuildError(w, statusFor(err), name, err)
		return
	}
	// On its way from here: a batch forming on the host may wait for this
	// request while its body is read. run takes the count over.
	h.inbound.Add(1)
	in, status, err := s.readPredict(w, r, h)
	if err != nil {
		h.inbound.Add(-1)
		writeError(w, status, err)
		return
	}
	decoded := time.Now()
	h.st.decode.Observe(decoded.Sub(begin).Seconds())
	res, err := h.run(r.Context(), in.tensors, begin, decoded)
	if err != nil {
		// in is dropped, not recycled: when run gave up on ctx.Done() the
		// dispatcher still owns the call and will read these tensors.
		writeError(w, statusFor(err), err)
		return
	}
	h.inPool.Put(in)
	defer res.Release()
	var trace *predictTrace
	if r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1" {
		trace = traceOf(res.tl)
	}
	// The whole body is built before the header goes out, so a response
	// that cannot be encoded is still an error response.
	encodeStart := time.Now()
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	*buf, err = appendPredictResponse((*buf)[:0], name, id, h.outNames, res, trace)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	h.st.encode.Observe(time.Since(encodeStart).Seconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(http.StatusOK)
	w.Write(*buf) // a failed write is a client that left; there is no one to tell
}

// maxBodyReserve bounds what a Content-Length header alone makes readPredict
// allocate; a longer body grows its buffer as the bytes arrive, and the grown
// buffer goes back to the pool for the next request of that size.
const maxBodyReserve = 1 << 20

// readPredict reads the request body once into a pooled buffer, behind the
// body cap, and decodes it into a pooled input set of the host. A failure
// comes back with its status code.
func (s *Server) readPredict(w http.ResponseWriter, r *http.Request, h *Host) (*predictInputs, int, error) {
	if limit := s.bodyLimit(); limit > 0 {
		if r.ContentLength > limit {
			// What the reader below would say limit+1 bytes later, closing
			// the connection as it does.
			w.Header().Set("Connection", "close")
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	var err error
	if *buf, err = readBody(r.Body, *buf, max(0, min(r.ContentLength, maxBodyReserve))); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err)
	}
	in := h.inPool.Get().(*predictInputs)
	if err := h.decodePredict(*buf, in); err != nil {
		h.inPool.Put(in)
		return nil, http.StatusBadRequest, err
	}
	return in, http.StatusOK, nil
}

// bodyLimit resolves the effective :predict body cap.
func (s *Server) bodyLimit() int64 {
	if s.MaxBodyBytes == 0 {
		return DefaultMaxBodyBytes
	}
	return s.MaxBodyBytes
}

// statusFor maps the serving error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, dnnfusion.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, dnnfusion.ErrUnknownInput),
		errors.Is(err, dnnfusion.ErrMissingInput),
		errors.Is(err, dnnfusion.ErrShapeMismatch):
		return http.StatusBadRequest
	case errors.Is(err, dnnfusion.ErrImport):
		// The model file on disk cannot be loaded; the request itself is
		// fine, so neither 400 nor 500 fits.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrClosed):
		// Whole-server conditions: the in-flight ceiling or an evicted/
		// draining host. Checked before the general overload case —
		// ErrSaturated wraps ErrOverloaded but is not a retry-this-
		// instance signal.
		return http.StatusServiceUnavailable
	case errors.Is(err, dnnfusion.ErrOverloaded):
		// One model's queue is full: back off and retry.
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON encodes v before the header goes out, so a body that cannot be
// encoded (a NaN in a float field) is a 500 error response rather than a
// status the client cannot act on over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n')) // a failed write is a client that left; there is no one to tell
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Shed responses carry a retry hint: the rejection was cheap and
		// the condition is expected to clear (queue drains, drain
		// completes, a slot frees).
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]string{"error": err.Error()}
	addRequestID(w, body)
	writeJSON(w, status, body)
}

// addRequestID copies the response's X-Request-ID (set once at the edge by
// ServeHTTP) into a JSON error body, so a shed 429/503 or a 422 build
// failure is attributable from the body alone — clients and log pipelines
// that drop headers still keep the correlation key.
func addRequestID(w http.ResponseWriter, body map[string]string) {
	if id := w.Header().Get("X-Request-ID"); id != "" {
		body["request_id"] = id
	}
}

// writeBuildError reports a model whose lazy build failed. Unlike plain
// writeError it carries the model name and the root cause as separate
// fields, so a client scripting against a -models directory can tell a bad
// file ("cause": unsupported operator ...) from a broken server.
func writeBuildError(w http.ResponseWriter, status int, model string, err error) {
	body := map[string]string{
		"error": err.Error(),
		"model": model,
	}
	if cause := rootCause(err); cause != err.Error() {
		body["cause"] = cause
	}
	addRequestID(w, body)
	writeJSON(w, status, body)
}

// rootCause walks the Unwrap chain to the innermost error message.
func rootCause(err error) string {
	for {
		inner := errors.Unwrap(err)
		if inner == nil {
			return err.Error()
		}
		err = inner
	}
}
