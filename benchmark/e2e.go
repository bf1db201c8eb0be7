package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"dnnfusion"
	"dnnfusion/internal/tensor"
	"dnnfusion/serve"
)

// tolerance is the correctness gate: every checked output must be within
// tensor.AllClose(·, reference, tolerance) of the scalar interpreter.
const tolerance = 1e-3

// checkEvery is the stride of output checks inside a timed loop: the first
// operation and every 64th after it are compared with the reference,
// after the operation's end was stamped.
const checkEvery = 64

// A run sets the workload up from nothing at least setupRounds times, and
// goes on until setupBudget has passed or maxSetupRounds were made; setup_s
// is the median.
const (
	setupRounds    = 3
	maxSetupRounds = 200
	setupBudget    = 1500 * time.Millisecond
)

// env is one set-up workload on the library path: generated inputs, the
// model loaded from ONNX bytes, one warmed runner, and the request bodies
// the HTTP path will send.
type env struct {
	w      workload
	gen    *generated
	model  *dnnfusion.Model
	runner *dnnfusion.Runner
	bodies [][]byte
}

// load is the cold start a user pays: ONNX bytes to a compiled model, no
// profile database and no kernel cache. End-to-end phases compile for one
// lane (see README: default-thread medians are not repeatable on two cores).
func load(onnx []byte) (*dnnfusion.Model, error) {
	g, err := dnnfusion.Import(onnx)
	if err != nil {
		return nil, err
	}
	return dnnfusion.Compile(g, dnnfusion.WithThreads(1))
}

// matches reports whether out holds every reference output within tolerance.
func matches(out, ref map[string]*dnnfusion.Tensor) bool {
	for name, want := range ref {
		if got := out[name]; got == nil || !tensor.AllClose(got, want, tolerance) {
			return false
		}
	}
	return true
}

// wireTensor and the two envelopes mirror serve's :predict JSON.
type wireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

type predictRequest struct {
	Inputs map[string]wireTensor `json:"inputs"`
}

type predictResponse struct {
	Outputs map[string]wireTensor `json:"outputs"`
}

func encodeRequest(in map[string]*dnnfusion.Tensor) ([]byte, error) {
	req := predictRequest{Inputs: make(map[string]wireTensor, len(in))}
	for name, t := range in {
		req.Inputs[name] = wireTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return json.Marshal(req)
}

// responseMatches decodes a :predict body and checks it against ref.
func responseMatches(body []byte, ref map[string]*dnnfusion.Tensor) bool {
	var resp predictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	out := make(map[string]*dnnfusion.Tensor, len(resp.Outputs))
	for name, wt := range resp.Outputs {
		n := 1
		for _, d := range wt.Shape {
			n *= d
		}
		if n != len(wt.Data) {
			return false
		}
		out[name] = dnnfusion.FromSlice(wt.Data, wt.Shape...)
	}
	return matches(out, ref)
}

// prepare sets the library path up from the seed: generate, load, warm one
// runner with a checked inference, encode the request bodies.
func prepare(w workload, seed uint64, t *tally) (*env, error) {
	if w.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s: %d closed-loop clients on %d CPUs would measure the scheduler, not the server", w.name, w.clients, runtime.NumCPU())
	}
	gen, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	m, err := load(gen.onnx)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", w.name, err)
	}
	e := &env{w: w, gen: gen, model: m, runner: m.NewRunner()}
	out, err := e.runner.Run(context.Background(), gen.inputs[0])
	switch {
	case err != nil:
		t.fail("%s: warm-up run: %v", w.name, err)
	case !matches(out, gen.refs[0]):
		t.fail("%s: warm-up run differs from the interpreter", w.name)
	default:
		t.ok()
	}
	for _, in := range gen.inputs {
		body, err := encodeRequest(in)
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, body)
	}
	return e, nil
}

// server is a real serve.Server behind a loopback TCP listener, with the
// keep-alive client the closed loop drives it through.
type server struct {
	reg     *serve.Registry
	host    *serve.Host
	handler *serve.Server
	http    *http.Server
	served  chan error
	url     string
	client  *http.Client
}

// startServer registers the env's model under the default serve.Config (the
// one dnnf-serve uses), listens on loopback, and sends one checked request
// per client so every connection is open before a window starts.
func (e *env) startServer(t *tally) (*server, error) {
	reg := serve.NewRegistry()
	host, err := reg.Register(e.w.name, e.model, serve.Config{})
	if err != nil {
		reg.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &server{
		reg:     reg,
		host:    host,
		handler: serve.NewServer(reg),
		served:  make(chan error, 1),
		url:     fmt.Sprintf("http://%s/v1/models/%s:predict", ln.Addr(), e.w.name),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     e.w.clients,
			MaxIdleConnsPerHost: e.w.clients,
			DisableCompression:  true,
		}},
	}
	s.http = &http.Server{Handler: s.handler}
	go func() { s.served <- s.http.Serve(ln) }()
	_, warm, _ := s.drive(e, 0, nil)
	t.add(warm)
	return s, nil
}

// stop shuts the listener, the connections and the registry down and waits
// for the serving goroutine to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
	s.reg.Close()
}

// post sends one bytes-in/bytes-out :predict request.
func (s *server) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

// drive sends bytes-in/bytes-out :predict requests in a closed loop with the
// workload's client count. A sample is the client-side time from before the
// request is written to after the last response byte was read. The first
// and every 64th response of each client are kept and checked after the
// window. It also returns the largest response body seen.
func (s *server) drive(e *env, length time.Duration, tr *tracer) (*window, tally, int) {
	type kept struct {
		input int
		body  []byte
	}
	keep := make([][]kept, e.w.clients)
	largest := make([]int, e.w.clients)
	win, t := closedLoop(e.w.clients, length, tr, "http.POST :predict", func(c, n int) error {
		input := (c + n) % len(e.bodies)
		body, err := s.post(e.bodies[input])
		if err != nil {
			return err
		}
		largest[c] = max(largest[c], len(body))
		if n%checkEvery == 0 {
			keep[c] = append(keep[c], kept{input, body})
		}
		return nil
	})
	respBytes := 0
	for c := range keep {
		respBytes = max(respBytes, largest[c])
		for _, k := range keep[c] {
			if !responseMatches(k.body, e.gen.refs[k.input]) {
				t.retract("%s: :predict response differs from the interpreter", e.w.name)
			}
		}
	}
	return win, t, respBytes
}

// inferLoop times one warmed Runner.Run per sample from one caller, rotating
// the inputs. The first and every 64th output are checked after the sample's
// end was stamped. At least minSamples are taken whatever the length. The
// samples are scaled by the calibrations between them (calib.go).
func inferLoop(r *dnnfusion.Runner, gen *generated, length time.Duration, minSamples int, tr *tracer, spanName string) (*window, tally) {
	ctx := context.Background()
	win := &window{}
	var t tally
	t0 := time.Now()
	sc := newScaler(win)
	for n := 0; ; n++ {
		input := n % len(gen.inputs)
		start := time.Now()
		if n >= minSamples && start.Sub(t0) >= length {
			break
		}
		out, err := r.Run(ctx, gen.inputs[input])
		end := time.Now()
		if err != nil {
			t.fail("%s: Runner.Run: %v", gen.graph.Name, err)
			continue
		}
		win.dur = append(win.dur, end.Sub(start))
		if tr != nil && n < maxSpansPerName {
			tr.record(spanName, -1, n, start, end)
		}
		if n%checkEvery == 0 && !matches(out, gen.refs[input]) {
			t.fail("%s: Runner.Run output differs from the interpreter", gen.graph.Name)
		} else {
			t.ok()
		}
		sc.tick(end)
	}
	sc.flush(time.Now())
	if tr != nil {
		tr.skip(spanName, len(win.dur)-maxSpansPerName)
	}
	return win, t
}

// loadLoop times cold loads back to back, at least three, with the collector
// off. A process loads a model once, into fresh memory, and pays no
// collection for it; thousands of back-to-back loads with the collector on
// recycle memory, and their median rode on how much (head: 81-112 us over
// eight runs on, 84.5-87.5 with two outliers off). The caller collects
// afterwards; a slice allocates a few hundred MB at most.
func loadLoop(onnx []byte, length time.Duration) (*window, tally) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	win := &window{}
	var t tally
	t0 := time.Now()
	sc := newScaler(win)
	for {
		start := time.Now()
		if len(win.dur) >= 3 && start.Sub(t0) >= length {
			break
		}
		_, err := load(onnx)
		end := time.Now()
		if err != nil {
			t.fail("load: %v", err)
			continue
		}
		win.dur = append(win.dur, end.Sub(start))
		t.ok()
		sc.tick(end)
	}
	sc.flush(time.Now())
	return win, t
}

// passResult is one pass of one workload.
type passResult struct {
	Workload string                 `json:"workload"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Info holds figures printed for the reader that are not gated metrics.
	Info      map[string]float64 `json:"info,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failure   string             `json:"first_failure,omitempty"`
}

func (p *passResult) set(name, unit string, value float64) {
	p.Metrics[name] = metricValue{Value: value, Unit: unit}
}

func (p *passResult) tally(t tally) {
	p.Attempted, p.Failed, p.Failure = t.attempted, t.failed, t.firstFailure
}

// unarmed makes a library loop run with per-kernel profiling disarmed, as a
// library user has it: a live serve.Registry keeps it armed process-wide,
// which would put clock reads into every kernel. Should it still be armed,
// someone else armed it; the slice is not run and counts as one failure.
func unarmed(loop func(time.Duration) (*window, tally)) func(time.Duration) (*window, tally) {
	return func(d time.Duration) (*window, tally) {
		dnnfusion.DisableProfiling()
		defer dnnfusion.EnableProfiling()
		if dnnfusion.ProfilingEnabled() {
			var t tally
			t.fail("per-kernel profiling is armed during a library phase")
			return &window{}, t
		}
		return loop(d)
	}
}

// e2eRounds is how many slices each end-to-end phase is cut into. The phases
// take turns, round by round, so each samples the whole run and not one
// stretch of it: the box this was written on shifts speed by 10-20% for
// seconds at a time. A percentile is reported as the median over the slices
// of the slice's percentile; on 300 s of recorded cnn inferences cut into
// 25 s runs that spread 2% between runs, where one contiguous window spread
// 6.5%, the pooled slices 4%, and the fastest slice 15%.
const e2eRounds = 7

// setUp goes from nothing to a served first request and reports how long
// that took: generation, export, reference interpretation, load, runner
// warm-up, registration (batch variant and parity check), listener start
// and one checked request per client. The time is scaled by the calibrations
// on either side of it (calib.go).
func setUp(w workload, seed uint64, t *tally) (*env, *server, float64, error) {
	runtime.GC()
	before := slowness()
	start := time.Now()
	e, err := prepare(w, seed, t)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := e.startServer(t)
	if err != nil {
		return nil, nil, 0, err
	}
	took := time.Since(start).Seconds()
	return e, srv, took / ((before + slowness()) / 2), nil
}

// endToEndPass measures what a user sees, with tracing off. It sets the
// workload up several times (setup_s is the median), keeps the last one, and
// then takes turns, rounds times over: a slice of cold loads (a tenth of
// seconds in all), a slice of library inferences with profiling disarmed and
// a slice of HTTP requests (nine twentieths each).
func endToEndPass(w workload, seed uint64, seconds float64, rounds int) (*passResult, error) {
	res := &passResult{Workload: w.name, Metrics: map[string]metricValue{}, Info: map[string]float64{}}
	var t tally

	// At least setupRounds set-ups; a workload that sets up in milliseconds
	// repeats until setupBudget has passed, so its median is as steady.
	var setups []float64
	var e *env
	var srv *server
	for begun := time.Now(); len(setups) < setupRounds || (time.Since(begun) < setupBudget && len(setups) < maxSetupRounds); {
		if srv != nil {
			srv.stop()
		}
		var took float64
		var err error
		if e, srv, took, err = setUp(w, seed, &t); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer srv.stop()
	res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups)}
	res.set("peak_arena_kb", "KiB", float64(e.model.PlannedPeakBytes())/1024)

	// Untimed loads first: the first compiles in a process are slower.
	loadLoop(e.gen.onnx, time.Duration(seconds/100*float64(time.Second)))
	runtime.GC()
	loads := &phase{share: 1.0 / 10, run: func(d time.Duration) (*window, tally) { return loadLoop(e.gen.onnx, d) }}
	infers := &phase{share: 9.0 / 20, run: unarmed(func(d time.Duration) (*window, tally) {
		return inferLoop(e.runner, e.gen, d, 3, nil, "")
	})}
	reqs := &phase{share: 9.0 / 20, run: func(d time.Duration) (*window, tally) {
		win, ht, _ := srv.drive(e, d, nil)
		return win, ht
	}}
	takeTurns(rounds, seconds, []*phase{loads, infers, reqs}, &t)
	res.Metrics["load_ms"] = loads.metric(loads.p50, 50)
	res.Metrics["infer_ms_p50"] = infers.metric(infers.p50, 50)
	res.Metrics["http_ms_p50"] = reqs.metric(reqs.p50, 50)
	res.Metrics["http_ms_p90"] = reqs.metric(reqs.p90, 90)
	res.Metrics["http_rps"] = metricValue{Value: median(reqs.rate), Unit: "1/s", Samples: reqs.samples}
	// Information, not bounded: head's library p90 spread 24% over ten quiet
	// wall-clock runs, and p99 moved 2.2x between identical runs.
	res.Info["infer_ms_p90"] = median(infers.p90)
	// How much slower than the reference the box ran during the library
	// slices: a reported time multiplied by this is the wall time it took.
	res.Info["slowness"] = infers.rawSumMs / infers.sumMs
	res.Info["http_ms_p99"] = median(reqs.p99)

	res.tally(t)
	return res, nil
}
