// Package serve is the serving subsystem over the dnnfusion compiler: a
// concurrency-safe model repository (Registry) keyed by model name, a
// per-model dynamic batcher that coalesces concurrent single-request Run
// calls into batched executions over a batch-compiled model variant, and an
// HTTP front-end (Server) exposing the repository as JSON endpoints.
//
// The layering mirrors production model servers: Registry owns Hosts; a
// Host owns one model (possibly lazily built), its batch-capacity variant,
// a dispatcher goroutine that forms batches under MaxBatch/MaxDelay, and
// per-model serving counters; Server translates HTTP to Host calls and the
// package's error taxonomy to status codes. Batching is semantically
// invisible — batched outputs are bit-identical to sequential Runner.Run
// calls, enforced at registration by a parity self-check — and models whose
// graphs do not admit a leading batch axis transparently fall back to
// per-request execution.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnfusion"

	"dnnfusion/internal/obs"
)

// ErrClosed reports a request against an evicted (closed) host.
var ErrClosed = errors.New("serve: model host closed")

// ErrSaturated reports a request rejected by the registry-wide in-flight
// ceiling (SetMaxInFlight): the whole server, not just one model's queue,
// is at capacity. It wraps dnnfusion.ErrOverloaded, so callers that treat
// all shedding alike can errors.Is against the one sentinel; HTTP layers
// distinguish the two (queue-full → 429, ceiling → 503).
var ErrSaturated = fmt.Errorf("serve: too many in-flight requests: %w", dnnfusion.ErrOverloaded)

// Config tunes one model's serving behavior. The zero value serves with
// dynamic batching at the default capacity and delay.
type Config struct {
	// MaxBatch is the batch capacity: up to MaxBatch concurrent requests
	// coalesce into one batched execution. 0 means DefaultMaxBatch; 1
	// disables coalescing (every request executes individually).
	MaxBatch int
	// MaxDelay bounds how long the first request of a forming batch waits
	// for peers before the batch executes anyway, counted from when it was
	// queued. 0 means DefaultMaxDelay; negative disables waiting (a batch
	// is whatever is already queued) and is held as 0. The wait is
	// skipped when no request is inbound — no :predict handler between
	// resolving the model and queueing, no Run call short of the queue —
	// so a lone client never pays it. When it is paid, a sub-millisecond
	// value is rounded up to ~1.1 ms by the runtime on an otherwise idle
	// process (the netpoller's epoll_wait timeout is whole milliseconds).
	MaxDelay time.Duration
	// Queue is the pending-request buffer size; 0 means 4×MaxBatch. A
	// full queue sheds: Host.Run fails fast wrapping
	// dnnfusion.ErrOverloaded instead of queueing unboundedly or
	// blocking.
	Queue int
	// Prewarm binds the serving arenas when the model is built instead of
	// on the first request.
	Prewarm bool
}

// Serving defaults.
const (
	DefaultMaxBatch = 8
	DefaultMaxDelay = 500 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = DefaultMaxDelay
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	return c
}

// inflight is the registry-wide concurrent-request limiter shared by every
// host: a ceiling on requests between admission and response, across all
// models, so total queued+executing work is bounded before memory is.
// Rejections count on the registry's obs counter (the 503 path's source of
// truth for /healthz and /metrics alike).
type inflight struct {
	max      atomic.Int64
	cur      atomic.Int64
	rejected *obs.Counter
}

// acquire claims one in-flight slot; false means the ceiling is reached
// and the request must be shed. A ceiling of 0 or below admits everything
// (depth is still tracked for observability).
func (l *inflight) acquire() bool {
	cur := l.cur.Add(1)
	if m := l.max.Load(); m > 0 && cur > m {
		l.cur.Add(-1)
		l.rejected.Add(1)
		return false
	}
	return true
}

func (l *inflight) release() { l.cur.Add(-1) }

// Registry is the model repository: named, concurrency-safe, holding
// compiled models and lazy builders. Resolve misses wrap
// dnnfusion.ErrUnknownModel so HTTP layers map them with errors.Is.
type Registry struct {
	mu    sync.RWMutex
	hosts map[string]*Host
	// obs is the repository's metric registry — the single source of truth
	// for every serving counter. /healthz, /v1/models, and /metrics all
	// read through it.
	obs *obs.Registry
	// buildFails counts lazy builders that failed (import or compile
	// errors), across all hosts ever registered. Surfaced on /healthz so a
	// bad file in a -models directory is visible without hitting the model.
	buildFails *obs.Counter
	// limiter is the registry-wide in-flight ceiling every host admits
	// through (SetMaxInFlight; 0 = unlimited).
	limiter inflight
	// disarm balances the obs.Arm taken at construction, exactly once even
	// if Close is called repeatedly.
	disarm sync.Once
}

// BuildFailures reports how many registered builders have failed to
// produce a model (each failed host counts once; failures are sticky).
func (r *Registry) BuildFailures() uint64 { return r.buildFails.Value() }

// SetMaxInFlight caps concurrent requests (queued + executing) across
// every host in the registry; beyond the cap Host.Run fails fast with
// ErrSaturated (503 through the HTTP layer). n <= 0 removes the cap. The
// cap can be changed while serving.
func (r *Registry) SetMaxInFlight(n int) { r.limiter.max.Store(int64(n)) }

// MaxInFlight returns the registry-wide concurrent-request ceiling (0 =
// unlimited).
func (r *Registry) MaxInFlight() int { return int(r.limiter.max.Load()) }

// InFlight reports the requests currently between admission and response,
// across all hosts.
func (r *Registry) InFlight() int { return int(r.limiter.cur.Load()) }

// Saturated counts requests rejected by the in-flight ceiling.
func (r *Registry) Saturated() uint64 { return r.limiter.rejected.Value() }

// NewRegistry creates an empty repository. It owns a metric registry
// (WritePrometheus, Server's /metrics) and arms process-global per-kernel
// profiling for its lifetime — Close disarms — so a serving process
// attributes execution time to kernels by default.
func NewRegistry() *Registry {
	r := &Registry{hosts: make(map[string]*Host), obs: obs.NewRegistry()}
	r.buildFails = r.obs.Counter("dnnf_serve_build_failures_total", helpBuildFails)
	r.limiter.rejected = r.obs.Counter("dnnf_serve_saturated_total", helpSaturated)
	r.obs.GaugeFunc("dnnf_serve_in_flight", helpInFlight,
		func() float64 { return float64(r.limiter.cur.Load()) })
	r.obs.GaugeFunc("dnnf_serve_max_in_flight", helpMaxInFlight,
		func() float64 { return float64(r.limiter.max.Load()) })
	obs.Arm()
	return r
}

// Register adds a compiled model under the given name and returns its
// serving host. Registering an empty name, a nil model, or a name already
// taken is an error.
func (r *Registry) Register(name string, m *dnnfusion.Model, cfg Config) (*Host, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: register %q: nil model", name)
	}
	return r.add(name, &Host{name: name, cfg: cfg.withDefaults(), build: func() (*dnnfusion.Model, error) { return m, nil }})
}

// RegisterBuilder adds a lazily built model: build runs at most once, on
// the first request (or Info call) that needs the model, so a serving
// process can expose a large zoo without compiling every model up front.
func (r *Registry) RegisterBuilder(name string, build func() (*dnnfusion.Model, error), cfg Config) (*Host, error) {
	if build == nil {
		return nil, fmt.Errorf("serve: register %q: nil builder", name)
	}
	return r.add(name, &Host{name: name, cfg: cfg.withDefaults(), build: build})
}

func (r *Registry) add(name string, h *Host) (*Host, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: register: empty model name")
	}
	h.closed = make(chan struct{})
	h.ctx, h.cancel = context.WithCancel(context.Background())
	h.onBuildFail = func() { r.buildFails.Inc() }
	h.limiter = &r.limiter
	h.obs = r.obs
	h.st.init(r.obs, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.hosts[name]; dup {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	r.hosts[name] = h
	return h, nil
}

// Resolve returns the named model's serving host. Unknown names wrap
// dnnfusion.ErrUnknownModel.
func (r *Registry) Resolve(name string) (*Host, error) {
	r.mu.RLock()
	h, ok := r.hosts[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", dnnfusion.ErrUnknownModel, name)
	}
	return h, nil
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.hosts))
	for name := range r.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Evict removes the named model and shuts its host down: the dispatcher
// stops, pending requests fail with ErrClosed, and the serving arenas are
// dropped. It reports whether the model was registered.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	h, ok := r.hosts[name]
	delete(r.hosts, name)
	r.mu.Unlock()
	if ok {
		h.close()
	}
	return ok
}

// Close evicts every model and disarms the profiling hook armed at
// construction (once, however many times Close runs).
func (r *Registry) Close() {
	for _, name := range r.Names() {
		r.Evict(name)
	}
	r.disarm.Do(obs.Disarm)
}
