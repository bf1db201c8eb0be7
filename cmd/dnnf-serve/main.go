// Command dnnf-serve is the HTTP serving front-end: it hosts ONNX models
// from a directory and/or the in-tree zoos behind a model repository with
// per-model dynamic request batching.
//
// Usage:
//
//	dnnf-serve                          # serve the micro zoo on :8080
//	dnnf-serve -models ./models         # serve every .onnx in a directory
//	dnnf-serve -addr :9000 -max-batch 16 -max-delay 1ms
//	dnnf-serve -micro micro-mlp,micro-cnn -prewarm
//	dnnf-serve -zoo                     # also expose the Table 5 models
//	dnnf-serve -queue 32 -max-inflight 256
//	dnnf-serve -drain-timeout 10s       # graceful-shutdown budget on SIGTERM
//
// Endpoints (see serve.Server):
//
//	GET  /healthz
//	GET  /v1/models
//	GET  /v1/models/{name}
//	POST /v1/models/{name}:predict     {"inputs": {"x": {"shape": [...], "data": [...]}}}
//	GET  /metrics                      Prometheus text exposition
//	GET  /debug/pprof/                 Go profiling (only with -pprof)
//
// Models from -models are imported lazily on first request; a file that
// fails to import answers its own requests with 422 and counts on
// /healthz as a build failure, without affecting other models. The Table 5
// zoo models are shape-only (their weights carry no data), so they serve
// metadata and simulation but fail :predict; the micro models and
// imported models with full weights execute numerically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnnfusion"
	"dnnfusion/serve"

	"dnnfusion/internal/models"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelDir := flag.String("models", "", "directory of .onnx files to serve (lazily imported)")
	modelList := flag.String("micro", "", "comma-separated micro-model names to serve (default: all micro models; 'none' disables)")
	zoo := flag.Bool("zoo", false, "also register the Table 5 simulation zoo (metadata only; shape-only weights cannot execute)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "dynamic batching capacity per model (1 disables)")
	maxDelay := flag.Duration("max-delay", serve.DefaultMaxDelay, "how long the first request of a batch waits for peers, counted from its enqueue and only while another request is inbound (negative: no wait)")
	queue := flag.Int("queue", 0, "per-model pending-request queue capacity (0 = 4×max-batch); a full queue sheds with 429")
	maxInflight := flag.Int("max-inflight", 0, "server-wide concurrent-request ceiling (0 = unlimited); beyond it requests get 503")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget: stop admitting (503), drain in-flight requests this long, then force-close")
	threads := flag.Int("threads", 0, "worker lanes per model (0 = GOMAXPROCS)")
	prewarm := flag.Bool("prewarm", false, "compile and bind serving arenas at startup instead of on first request")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/ (off by default; costs CPU and reveals internals)")
	flag.Parse()

	cfg := serve.Config{
		MaxBatch: *maxBatch,
		MaxDelay: *maxDelay,
		Queue:    *queue,
		Prewarm:  *prewarm,
	}
	compileOpts := []dnnfusion.Option{dnnfusion.WithThreads(*threads)}
	reg := serve.NewRegistry()
	reg.SetMaxInFlight(*maxInflight)
	registered := 0

	if *modelDir != "" {
		names, err := reg.RegisterDir(*modelDir, func(g *dnnfusion.Graph) (*dnnfusion.Model, error) {
			return dnnfusion.Compile(g, compileOpts...)
		}, cfg)
		if err != nil {
			log.Fatalf("registering model directory: %v", err)
		}
		log.Printf("registered %d models from %s: %v", len(names), *modelDir, names)
		registered += len(names)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*modelList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	serveMicro := !want["none"]
	delete(want, "none")
	filtered := len(want) > 0
	for _, spec := range models.MicroModels() {
		if !serveMicro {
			break
		}
		if filtered && !want[spec.Name] {
			continue
		}
		delete(want, spec.Name)
		build := spec.Build
		if _, err := reg.RegisterBuilder(spec.Name, func() (*dnnfusion.Model, error) {
			return dnnfusion.Compile(build(), compileOpts...)
		}, cfg); err != nil {
			log.Fatalf("registering %s: %v", spec.Name, err)
		}
		registered++
	}
	if len(want) > 0 {
		log.Fatalf("unknown micro models requested: %v (available: %v)", keys(want), microNames())
	}
	if *zoo {
		for _, name := range dnnfusion.ModelNames() {
			name := name
			if _, err := reg.RegisterBuilder(name, func() (*dnnfusion.Model, error) {
				g, err := dnnfusion.BuildModel(name)
				if err != nil {
					return nil, err
				}
				return dnnfusion.Compile(g, compileOpts...)
			}, cfg); err != nil {
				log.Fatalf("registering zoo model %s: %v", name, err)
			}
			registered++
		}
	}
	if registered == 0 {
		log.Fatal("no models to serve")
	}
	if *prewarm {
		start := time.Now()
		for _, name := range reg.Names() {
			h, err := reg.Resolve(name)
			if err != nil {
				continue
			}
			if _, err := h.Model(); err != nil {
				log.Printf("prewarm %s: %v", name, err)
			}
		}
		log.Printf("prewarmed %d models in %v", registered, time.Since(start).Round(time.Millisecond))
	}

	handler := serve.NewServer(reg)
	handler.Pprof = *pprofOn
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// A client that never finishes sending headers must not hold a
		// connection (and its goroutine) forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		log.Printf("dnnf-serve listening on %s (%d models, max-batch %d, max-delay %v, queue %d, max-inflight %d)",
			*addr, registered, *maxBatch, *maxDelay, *queue, *maxInflight)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("listen: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful shutdown: stop admitting first (deterministic 503s even on
	// kept-alive connections, /healthz reports "draining"), give in-flight
	// requests the drain budget, then force-close whatever remains so a
	// stuck client cannot hold the process open.
	log.Printf("draining (timeout %v)", *drainTimeout)
	handler.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain timeout exceeded, force-closing: %v", err)
		srv.Close()
	}
	reg.Close()
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func microNames() string {
	var names []string
	for _, spec := range models.MicroModels() {
		names = append(names, spec.Name)
	}
	return fmt.Sprint(names)
}
