package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// promFamily is one parsed metric family from a /metrics scrape.
type promFamily struct {
	typ    string
	help   string
	series map[string]float64 // "name{labels}" (or bare name) -> value
	order  []string
}

// parseProm is a minimal Prometheus text-format (0.0.4) parser, strict
// enough to pin the exporter: every sample must belong to a family whose
// # TYPE was declared first, HELP/TYPE must precede samples, values must
// parse as floats, and duplicate series are an error. It exists so the
// /metrics contract is enforced by an in-tree test rather than by whatever
// Prometheus happens to tolerate.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	get := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{series: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			get(parts[0]).help = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			f := get(parts[0])
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			if len(f.series) > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, parts[0])
			}
			f.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		// Sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: unparsable value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			name = name[:i]
		}
		fam := promFamilyOf(fams, name)
		if fam == nil {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, key)
		}
		if _, dup := fam.series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		fam.series[key] = val
		fam.order = append(fam.order, key)
	}
	for name, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %s has samples but no TYPE", name)
		}
		if f.help == "" {
			t.Fatalf("family %s has no HELP", name)
		}
	}
	return fams
}

// promFamilyOf resolves a sample name to its family, accounting for the
// histogram suffixes.
func promFamilyOf(fams map[string]*promFamily, name string) *promFamily {
	if f, ok := fams[name]; ok && f.typ != "" {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if f, okf := fams[base]; okf && f.typ == "histogram" {
			return f
		}
	}
	return nil
}

// checkHistograms verifies every histogram family's internal consistency:
// per label set, buckets are cumulative (nondecreasing in le order, which
// is emission order), the +Inf bucket equals _count, and _sum is finite.
func checkHistograms(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for name, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		prev := map[string]float64{} // series prefix (labels minus le) -> last cumulative
		inf := map[string]float64{}
		for _, key := range f.order {
			if !strings.HasPrefix(key, name+"_bucket") {
				continue
			}
			le := labelValue(t, key, "le")
			group := strings.Replace(key, `le="`+le+`"`, "", 1)
			v := f.series[key]
			if v < prev[group] {
				t.Errorf("%s: bucket le=%q count %v below previous %v", key, le, v, prev[group])
			}
			prev[group] = v
			if le == "+Inf" {
				inf[groupLabels(key)] = v
			}
		}
		for _, key := range f.order {
			if !strings.HasPrefix(key, name+"_count") {
				continue
			}
			g := groupLabels(key)
			if got := inf[g]; got != f.series[key] {
				t.Errorf("%s: +Inf bucket %v != _count %v", key, got, f.series[key])
			}
			sumKey := strings.Replace(key, name+"_count", name+"_sum", 1)
			sum, ok := f.series[sumKey]
			if !ok {
				t.Errorf("%s: histogram has _count but no _sum", key)
			}
			if math.IsNaN(sum) || math.IsInf(sum, 0) || sum < 0 {
				t.Errorf("%s = %v, want finite non-negative", sumKey, sum)
			}
		}
	}
}

// labelValue extracts one label's value from a series key.
func labelValue(t *testing.T, key, label string) string {
	t.Helper()
	marker := label + `="`
	i := strings.Index(key, marker)
	if i < 0 {
		t.Fatalf("series %q missing label %q", key, label)
	}
	rest := key[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		t.Fatalf("series %q: unterminated value for %q", key, label)
	}
	return rest[:j]
}

// groupLabels strips the le label from a series key, yielding a stable
// group identity for matching _bucket series against _count/_sum.
func groupLabels(key string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return ""
	}
	labels := strings.Trim(key[i:], "{}")
	var kept []string
	for _, pair := range strings.Split(labels, ",") {
		if pair != "" && !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

func scrape(t *testing.T, url string) (string, map[string]*promFamily) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	fams := parseProm(t, text)
	checkHistograms(t, fams)
	return text, fams
}

// TestServerMetricsEndpoint pins the /metrics contract: well-formed
// Prometheus text, the documented families present, counters that agree
// with the traffic actually sent, and monotone growth across scrapes.
func TestServerMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	const predicts = 5
	for i := 0; i < predicts; i++ {
		postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`, http.StatusOK)
	}
	_, fams := scrape(t, ts.URL)

	for _, want := range []struct{ name, typ string }{
		{"dnnf_serve_requests_total", "counter"},
		{"dnnf_serve_errors_total", "counter"},
		{"dnnf_serve_shed_total", "counter"},
		{"dnnf_serve_expired_total", "counter"},
		{"dnnf_serve_batches_total", "counter"},
		{"dnnf_serve_build_failures_total", "counter"},
		{"dnnf_serve_saturated_total", "counter"},
		{"dnnf_http_requests_total", "counter"},
		{"dnnf_serve_request_seconds", "histogram"},
		{"dnnf_serve_queue_wait_seconds", "histogram"},
		{"dnnf_serve_execute_seconds", "histogram"},
		{"dnnf_serve_batch_size", "histogram"},
		{"dnnf_decode_seconds", "histogram"},
		{"dnnf_encode_seconds", "histogram"},
		{"dnnf_kernel_execute_seconds", "histogram"},
		{"dnnf_serve_in_flight", "gauge"},
		{"dnnf_serve_queue_depth", "gauge"},
		{"dnnf_compile_stage_seconds", "gauge"},
	} {
		f, ok := fams[want.name]
		if !ok {
			t.Errorf("missing metric family %s", want.name)
			continue
		}
		if f.typ != want.typ {
			t.Errorf("%s type = %s, want %s", want.name, f.typ, want.typ)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	mlpReqs := fams["dnnf_serve_requests_total"].series[`dnnf_serve_requests_total{model="micro-mlp"}`]
	if mlpReqs != predicts {
		t.Errorf("requests_total{micro-mlp} = %v, want %d", mlpReqs, predicts)
	}
	httpOK := fams["dnnf_http_requests_total"].series[`dnnf_http_requests_total{code="200",route="predict"}`]
	if httpOK != predicts {
		t.Errorf(`http_requests_total{predict,200} = %v, want %d`, httpOK, predicts)
	}
	latCount := fams["dnnf_serve_request_seconds"].series[`dnnf_serve_request_seconds_count{model="micro-mlp"}`]
	if latCount != predicts {
		t.Errorf("request_seconds_count{micro-mlp} = %v, want %d", latCount, predicts)
	}
	// Every served :predict was decoded once and encoded once.
	for _, name := range []string{"dnnf_decode_seconds", "dnnf_encode_seconds"} {
		if n := fams[name].series[name+`_count{model="micro-mlp"}`]; n != predicts {
			t.Errorf("%s_count{micro-mlp} = %v, want %d", name, n, predicts)
		}
	}
	// The registry arms profiling, so the served runs must have advanced at
	// least one per-kernel histogram for the model.
	var kernelObs float64
	for key, v := range fams["dnnf_kernel_execute_seconds"].series {
		if strings.Contains(key, `_count{`) && strings.Contains(key, `model="micro-mlp"`) {
			kernelObs += v
		}
	}
	if kernelObs == 0 {
		t.Error("dnnf_kernel_execute_seconds never observed for micro-mlp despite armed profiling")
	}

	// Monotone: more traffic never decreases a counter.
	postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`, http.StatusOK)
	_, fams2 := scrape(t, ts.URL)
	for name, f := range fams {
		if f.typ != "counter" {
			continue
		}
		for key, v := range f.series {
			if v2, ok := fams2[name].series[key]; ok && v2 < v {
				t.Errorf("counter %s went backwards: %v -> %v", key, v, v2)
			}
		}
	}
	if got := fams2["dnnf_serve_requests_total"].series[`dnnf_serve_requests_total{model="micro-mlp"}`]; got != predicts+1 {
		t.Errorf("requests_total{micro-mlp} after one more predict = %v, want %d", got, predicts+1)
	}
}

// TestServerMetricsScrapeUnderLoad hammers :predict from many goroutines
// while concurrently scraping /metrics; every scrape must stay well-formed
// and internally consistent. Run under -race this is also the data-race
// gate for the whole telemetry path.
func TestServerMetricsScrapeUnderLoad(t *testing.T) {
	ts, _ := newTestServer(t)
	const (
		clients   = 4
		perClient = 25
		scrapes   = 20
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/models/micro-mlp:predict?trace=1",
					"application/json", strings.NewReader(`{"inputs": {"x": {}}}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < scrapes; i++ {
		scrape(t, ts.URL) // parses and checks consistency each time
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	<-done
	_, fams := scrape(t, ts.URL)
	total := fams["dnnf_serve_requests_total"].series[`dnnf_serve_requests_total{model="micro-mlp"}`]
	if total != clients*perClient {
		t.Errorf("requests_total{micro-mlp} = %v, want %d", total, clients*perClient)
	}
}

// TestServerRequestID pins the request-ID contract: a well-formed client
// X-Request-ID is echoed in the response header and JSON bodies (success
// and error alike), a malformed one is replaced, and an absent one is
// generated — so every 429/503/422 in a client log is attributable.
func TestServerRequestID(t *testing.T) {
	ts, _ := newTestServer(t)
	do := func(id, path, body string) (*http.Response, map[string]any) {
		t.Helper()
		var req *http.Request
		var err error
		if body == "" {
			req, err = http.NewRequest(http.MethodGet, ts.URL+path, nil)
		} else {
			req, err = http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		return resp, out
	}

	// Success: client ID echoed in header and body.
	resp, out := do("client-id-1", "/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`)
	if resp.Header.Get("X-Request-ID") != "client-id-1" || out["request_id"] != "client-id-1" {
		t.Errorf("client ID not echoed: header=%q body=%v", resp.Header.Get("X-Request-ID"), out["request_id"])
	}

	// Errors across the taxonomy carry the ID in the body too.
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/models/nope:predict", `{"inputs": {}}`, http.StatusNotFound},
		{"/v1/models/micro-mlp:predict", `{"inputs": {"nope": {}}}`, http.StatusBadRequest},
		{"/no/such/path", "", http.StatusNotFound},
	} {
		resp, out := do("err-id-2", tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s = %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if out["request_id"] != "err-id-2" {
			t.Errorf("%s error body request_id = %v, want err-id-2 (body %v)", tc.path, out["request_id"], out)
		}
		if resp.Header.Get("X-Request-ID") != "err-id-2" {
			t.Errorf("%s error header X-Request-ID = %q", tc.path, resp.Header.Get("X-Request-ID"))
		}
	}

	// A header outside the log-safe alphabet is discarded, not echoed.
	resp, out = do(`bad id {with spaces}`, "/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`)
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.ContainsAny(got, " \n") {
		t.Errorf("malformed client ID echoed or missing: %q", got)
	}
	if out["request_id"] != got {
		t.Errorf("body request_id %v != header %q", out["request_id"], got)
	}

	// No client ID: one is generated, and header == body.
	resp, out = do("", "/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`)
	if got := resp.Header.Get("X-Request-ID"); got == "" || out["request_id"] != got {
		t.Errorf("generated ID inconsistent: header=%q body=%v", got, out["request_id"])
	}
}

// TestServerPredictTrace pins the ?trace=1 block: stage names, a plausible
// batch size, and stage times that are non-negative and bounded by the
// total.
func TestServerPredictTrace(t *testing.T) {
	ts, _ := newTestServer(t)
	out := postJSON(t, ts.URL+"/v1/models/micro-mlp:predict?trace=1", `{"inputs": {"x": {}}}`, http.StatusOK)
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response has no trace block: %v", out)
	}
	if bs := tr["batch_size"].(float64); bs < 1 {
		t.Errorf("trace batch_size = %v, want >= 1", bs)
	}
	stages := tr["stages"].([]any)
	want := []string{"decode", "admission", "queue_wait", "batch_formation", "execute", "respond"}
	if len(stages) != len(want) {
		t.Fatalf("trace has %d stages, want %d", len(stages), len(want))
	}
	var sum float64
	for i, s := range stages {
		st := s.(map[string]any)
		if st["stage"] != want[i] {
			t.Errorf("stage %d = %v, want %s", i, st["stage"], want[i])
		}
		ns := st["ns"].(float64)
		if ns < 0 {
			t.Errorf("stage %s ns = %v, want >= 0", want[i], ns)
		}
		sum += ns
	}
	if sum == 0 {
		t.Error("all trace stages are zero")
	}

	// Execute time must be a real measurement: positive and below the whole
	// request's wall time is implied by the stage sum bounded heuristically.
	exec := stages[4].(map[string]any)["ns"].(float64)
	if exec <= 0 {
		t.Errorf("trace execute ns = %v, want > 0", exec)
	}
	// So must decode: the handler read and scanned a body before admission.
	if decode := stages[0].(map[string]any)["ns"].(float64); decode <= 0 {
		t.Errorf("trace decode ns = %v, want > 0", decode)
	}

	// Without trace=1 there is no trace block.
	out = postJSON(t, ts.URL+"/v1/models/micro-mlp:predict", `{"inputs": {"x": {}}}`, http.StatusOK)
	if _, has := out["trace"]; has {
		t.Errorf("trace block present without ?trace=1: %v", out)
	}
}

// TestServerPprofGated pins the pprof surface: 404 by default, index and
// profiles served when Server.Pprof is set.
func TestServerPprofGated(t *testing.T) {
	ts, reg := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}

	srv := NewServer(reg)
	srv.Pprof = true
	ts2 := httptest.NewServer(srv)
	t.Cleanup(ts2.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with Pprof on = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHostRunTimeline pins the Timeline surface directly on the host: a
// successful Run reports internally consistent stage timings.
func TestHostRunTimeline(t *testing.T) {
	_, reg := newTestServer(t)
	h, err := reg.Resolve("micro-mlp")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(context.Background(), microRequest(t, m, 11))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	tl := res.Timeline()
	if tl.BatchSize < 1 {
		t.Errorf("Timeline.BatchSize = %d, want >= 1", tl.BatchSize)
	}
	if tl.ExecuteNs <= 0 {
		t.Errorf("Timeline.ExecuteNs = %d, want > 0", tl.ExecuteNs)
	}
	if tl.QueueWaitNs < 0 || tl.BatchFormNs < 0 || tl.AdmissionNs < 0 {
		t.Errorf("negative stage in %+v", tl)
	}
	if tl.TotalNs < tl.ExecuteNs {
		t.Errorf("TotalNs %d < ExecuteNs %d", tl.TotalNs, tl.ExecuteNs)
	}
}
