package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dnnfusion"

	"dnnfusion/internal/models"
)

// newTestServer registers the batchable MLP and the fallback attention
// model behind an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	if _, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterBuilder("micro-attention", func() (*dnnfusion.Model, error) {
		return dnnfusion.Compile(models.MicroAttention(), dnnfusion.WithThreads(1))
	}, Config{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() { ts.Close(); r.Close() })
	return ts, r
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return body
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response of POST %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d (%v), want %d", url, resp.StatusCode, out, wantStatus)
	}
	return out
}

func TestServerHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if body["status"] != "ok" || body["models"].(float64) != 2 {
		t.Fatalf("healthz = %v", body)
	}
}

func TestServerListModels(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getJSON(t, ts.URL+"/v1/models", http.StatusOK)
	entries := body["models"].([]any)
	if len(entries) != 2 {
		t.Fatalf("listed %d models, want 2", len(entries))
	}
	first := entries[0].(map[string]any)
	// Sorted: micro-attention first, lazily registered so not yet loaded.
	if first["name"] != "micro-attention" || first["loaded"] != false {
		t.Fatalf("first entry = %v", first)
	}
	if _, hasStats := first["stats"]; hasStats {
		t.Fatal("unloaded model exposes stats (listing must not force builds)")
	}
}

func TestServerModelInfo(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getJSON(t, ts.URL+"/v1/models/micro-mlp", http.StatusOK)
	if body["name"] != "micro-mlp" || body["batchable"] != true || body["max_batch"].(float64) != 4 {
		t.Fatalf("info = %v", body)
	}
	if body["planned_peak_bytes"].(float64) <= 0 || body["batch_planned_peak_bytes"].(float64) <= 0 {
		t.Fatalf("info missing memory plan: %v", body)
	}
	in := body["inputs"].([]any)[0].(map[string]any)
	if in["name"] != "x" {
		t.Fatalf("input spec = %v", in)
	}
	// The fallback model reports why batching is off.
	body = getJSON(t, ts.URL+"/v1/models/micro-attention", http.StatusOK)
	if body["batchable"] != false || body["batch_disabled_reason"] == "" {
		t.Fatalf("attention info = %v", body)
	}
}

func TestServerPredictRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	m := compileMicro(t, models.MicroMLP)
	req := microRequest(t, m, 42)
	data, _ := json.Marshal(map[string]any{
		"inputs": map[string]any{"x": map[string]any{"shape": req["x"].Shape(), "data": req["x"].Data()}},
	})
	body := postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", string(data), http.StatusOK)
	if body["model"] != "micro-mlp" {
		t.Fatalf("predict response = %v", body)
	}
	out := body["outputs"].(map[string]any)["y"].(map[string]any)
	got := out["data"].([]any)
	want, err := m.NewRunner().Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	wd := want["y"].Data()
	if len(got) != len(wd) {
		t.Fatalf("predict returned %d elements, want %d", len(got), len(wd))
	}
	for k := range wd {
		if diff := float64(wd[k]) - got[k].(float64); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("element %d: served %v, direct %v", k, got[k], wd[k])
		}
	}
}

func TestServerPredictDefaults(t *testing.T) {
	ts, _ := newTestServer(t)
	// Omitted shape and data: declared shape, zero data — the minimal
	// smoke request CI uses.
	body := postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{"x":{}}}`, http.StatusOK)
	out := body["outputs"].(map[string]any)["y"].(map[string]any)
	if shape := out["shape"].([]any); len(shape) != 2 {
		t.Fatalf("output shape = %v", shape)
	}
}

func TestServerErrorTaxonomy(t *testing.T) {
	ts, reg := newTestServer(t)
	// Unknown model → 404 wrapping ErrUnknownModel semantics.
	body := postJSON(t, ts.URL+"/v1/models/nope:predict", `{"inputs":{}}`, http.StatusNotFound)
	if !strings.Contains(body["error"].(string), "unknown model") {
		t.Fatalf("404 body = %v", body)
	}
	getJSON(t, ts.URL+"/v1/models/nope", http.StatusNotFound)
	// Bad shape → 400 wrapping *ShapeError.
	body = postJSON(t, ts.URL+"/v1/models/micro-mlp:predict",
		`{"inputs":{"x":{"shape":[2,2],"data":[1,2,3,4]}}}`, http.StatusBadRequest)
	if !strings.Contains(body["error"].(string), "shape") {
		t.Fatalf("shape 400 body = %v", body)
	}
	// Data/shape element mismatch → 400.
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict",
		`{"inputs":{"x":{"data":[1,2,3]}}}`, http.StatusBadRequest)
	// Missing input → 400.
	body = postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{}}`, http.StatusBadRequest)
	if !strings.Contains(body["error"].(string), "missing input") {
		t.Fatalf("missing-input 400 body = %v", body)
	}
	// Unknown input name → 400.
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{"zz":{}}}`, http.StatusBadRequest)
	// Undecodable JSON → 400.
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{not json`, http.StatusBadRequest)
	// Wrong methods → 405.
	resp, err := http.Get(ts.URL + "/v1/models/micro-mlp:predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict = %d, want 405", resp.StatusCode)
	}
	// Unknown endpoint → 404.
	resp, err = http.Get(ts.URL + "/v2/frobnicate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown endpoint = %d, want 404", resp.StatusCode)
	}
	// Evicted model → 404 afterwards.
	reg.Evict("micro-mlp")
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{"x":{}}}`, http.StatusNotFound)
}

// postRaw posts and returns the raw response (status/header checks); the
// body is fully read and closed, its JSON (if any) decoded into out.
func postRaw(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestServerBodyLimit413(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	srv.MaxBodyBytes = 256
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); r.Close() })

	// A minimal request under the cap still serves.
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{"x":{}}}`, http.StatusOK)

	big := `{"inputs":{"x":{"data":[` + strings.Repeat("0,", 400) + `0]}}}`
	resp, body := postRaw(t, ts.URL+"/v1/models/micro-mlp:predict", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d (%v), want 413", resp.StatusCode, body)
	}
	if !strings.Contains(body["error"].(string), "256") {
		t.Fatalf("413 body does not name the limit: %v", body)
	}

	// The same body without a Content-Length (chunked) is refused by the
	// reader instead of the header check, with the same answer.
	resp2, err := http.Post(ts.URL+"/v1/models/micro-mlp:predict", "application/json", struct{ io.Reader }{strings.NewReader(big)})
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var chunked map[string]any
	json.NewDecoder(resp2.Body).Decode(&chunked)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge || chunked["error"] != body["error"] {
		t.Fatalf("chunked oversized body = %d (%v), want 413 (%v)", resp2.StatusCode, chunked, body)
	}
}

// TestServerOverload429RetryAfter drives the HTTP shed path: dispatcher
// pinned, queue full, next :predict answers 429 with a Retry-After hint.
func TestServerOverload429RetryAfter(t *testing.T) {
	r := NewRegistry()
	h, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{MaxBatch: 1, Queue: 1, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() { ts.Close(); r.Close() })
	url := ts.URL + "/v1/models/micro-mlp:predict"
	postJSON(t, url, `{"inputs":{"x":{}}}`, http.StatusOK) // warm before arming

	entered, release := blockExecute(t)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one executing, one queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, url, `{"inputs":{"x":{}}}`, http.StatusOK)
		}()
		if i == 0 {
			<-entered
		} else {
			waitQueueDepth(t, h, 1)
		}
	}
	resp, body := postRaw(t, url, `{"inputs":{"x":{}}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded predict = %d (%v), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("429 without Retry-After hint: %v", resp.Header)
	}
	if !strings.Contains(body["error"].(string), "queue full") {
		t.Fatalf("429 body = %v", body)
	}
	close(release)
	wg.Wait()

	// The shed shows up on /healthz, per host and in the aggregate.
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["shed"].(float64) != 1 {
		t.Fatalf("healthz shed = %v", health["shed"])
	}
	hh := health["hosts"].(map[string]any)["micro-mlp"].(map[string]any)
	if hh["shed"].(float64) != 1 || hh["queue_capacity"].(float64) != 1 {
		t.Fatalf("healthz host state = %v", hh)
	}
}

// TestServerSaturated503 drives the registry-wide ceiling over HTTP: one
// request in flight at max-inflight 1 turns the next into a 503.
func TestServerSaturated503(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{MaxBatch: 1, Queue: 4, MaxDelay: -1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() { ts.Close(); r.Close() })
	url := ts.URL + "/v1/models/micro-mlp:predict"
	postJSON(t, url, `{"inputs":{"x":{}}}`, http.StatusOK)

	r.SetMaxInFlight(1)
	entered, release := blockExecute(t)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, url, `{"inputs":{"x":{}}}`, http.StatusOK)
	}()
	<-entered
	resp, body := postRaw(t, url, `{"inputs":{"x":{}}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated predict = %d (%v), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("503 without Retry-After hint: %v", resp.Header)
	}
	close(release)
	wg.Wait()
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["saturated"].(float64) != 1 || health["max_in_flight"].(float64) != 1 {
		t.Fatalf("healthz saturation state = %v", health)
	}
}

// TestServerDrain: after Drain, :predict refuses with 503 while /healthz
// keeps answering and reports "draining".
func TestServerDrain(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); r.Close() })
	url := ts.URL + "/v1/models/micro-mlp:predict"
	postJSON(t, url, `{"inputs":{"x":{}}}`, http.StatusOK)

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp, body := postRaw(t, url, `{"inputs":{"x":{}}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict = %d (%v), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("drain 503 without Retry-After: %v", resp.Header)
	}
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["status"] != "draining" {
		t.Fatalf("healthz during drain = %v", health["status"])
	}
	// Listing and metadata stay up for operators during the drain.
	getJSON(t, ts.URL+"/v1/models", http.StatusOK)
	getJSON(t, ts.URL+"/v1/models/micro-mlp", http.StatusOK)
}

// TestServerHealthzControlState: the overload-control fields are present
// and sane on a healthy, idle server.
func TestServerHealthzControlState(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs":{"x":{}}}`, http.StatusOK)
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	for _, key := range []string{"in_flight", "max_in_flight", "saturated", "shed", "expired", "hosts"} {
		if _, ok := health[key]; !ok {
			t.Fatalf("healthz missing %q: %v", key, health)
		}
	}
	hh := health["hosts"].(map[string]any)["micro-mlp"].(map[string]any)
	// The per-host entry is the queue and its shed/expired counts, nothing
	// more: the coalescing wait is configuration, not control state.
	want := []string{"queue_depth", "queue_capacity", "shed", "expired"}
	if len(hh) != len(want) {
		t.Fatalf("host entry keys = %v, want exactly %v", hh, want)
	}
	for _, key := range want {
		if _, ok := hh[key]; !ok {
			t.Fatalf("host entry missing %q: %v", key, hh)
		}
	}
	if hh["queue_capacity"].(float64) <= 0 {
		t.Fatalf("loaded host reports no queue capacity: %v", hh)
	}
	if hh["queue_depth"].(float64) != 0 || hh["shed"].(float64) != 0 {
		t.Fatalf("idle host control state = %v", hh)
	}
	// The never-loaded lazy model is absent: health must not force builds.
	if _, ok := health["hosts"].(map[string]any)["micro-attention"]; ok {
		t.Fatal("healthz forced the lazy model's state")
	}
}

// TestServerParallelPredictRace hammers the HTTP surface from concurrent
// clients (run under -race in CI's GOMAXPROCS=4 step).
func TestServerParallelPredictRace(t *testing.T) {
	ts, _ := newTestServer(t)
	const clients, rounds = 6, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			model := "micro-mlp"
			if c%3 == 2 {
				model = "micro-attention"
			}
			url := fmt.Sprintf("%s/v1/models/%s:predict", ts.URL, model)
			input := map[string]string{"micro-mlp": "x", "micro-attention": "tokens"}[model]
			body := fmt.Sprintf(`{"inputs":{%q:{}}}`, input)
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
}

// TestHealthzAllocations pins what the per-route HTTP counter costs a
// request: nothing once its (route, code) has been seen. Resolving the
// labeled series per request took 9 allocations, and a GET /healthz 59.
func TestHealthzAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := NewRegistry()
	defer r.Close()
	if _, err := r.Register("micro-mlp", compileMicro(t, models.MicroMLP), Config{Prewarm: true}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /healthz = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(100, func() { srv.countHTTP("healthz", http.StatusOK) }); allocs != 0 {
		t.Errorf("counting a request allocates %.0f objects, want 0", allocs)
	}
	// 51 measured: the recorder and the request, the request ID, the
	// status writer, the body's map and its encoding.
	const limit = 51
	if allocs := testing.AllocsPerRun(100, serve); allocs > limit {
		t.Errorf("GET /healthz allocates %.0f objects, want at most %d", allocs, limit)
	}
}

// TestWriteJSONEncodeFailure: a body that cannot be encoded — a NaN — is a
// counted 500 with an error body, not a 200 with an empty one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	srv := NewServer(r)
	rec := httptest.NewRecorder()
	w := &statusWriter{ResponseWriter: rec}
	writeJSON(w, http.StatusOK, map[string]float64{"ewma": math.NaN()})
	srv.countHTTP("models", w.code())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "NaN") {
		t.Errorf("body %q (%v), want an error naming the NaN", rec.Body.Bytes(), err)
	}
	if n := r.obs.Counter("dnnf_http_requests_total", helpHTTPRequests, "route", "models", "code", "500").Value(); n != 1 {
		t.Errorf("dnnf_http_requests_total{route=models,code=500} = %d, want 1", n)
	}
}
