// Command dtad serves the CellDTA experiment harness as a long-running
// daemon: an HTTP/JSON API over a job queue, a bounded simulation
// worker pool, and a content-addressed LRU result cache keyed by
// deterministic run keys (see internal/service and SERVICE.md).
//
// Usage:
//
//	dtad [-addr :8080] [-workers n] [-batch k] [-cache n] [-queue-depth n]
//	     [-debug-addr addr]
//
// -batch k with k > 1 makes each worker interleave up to k jobs
// cooperatively (simulations advance in bounded slices), keeping more
// jobs in flight per worker with byte-identical results.
//
// -debug-addr (off by default) serves Go's net/http/pprof on a second
// listener — CPU/heap/goroutine profiles of the dtad HOST process
// itself. This is distinct from the guest cycle profiler
// (POST /v1/runs?profile=1 on the main listener), which profiles the
// SIMULATED machine; see OBSERVABILITY.md. Bind it to localhost: the
// debug listener is unauthenticated and can run arbitrary profiles.
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting,
// in-flight requests finish, queued jobs run to completion, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = one per CPU)")
		batchWidth = flag.Int("batch", 1, "jobs interleaved per worker (1 = run each job to completion)")
		cacheSize  = flag.Int("cache", service.DefaultCacheSize, "max cached result documents")
		queueDepth = flag.Int("queue-depth", 1024, "max queued jobs")
		ckptDir    = flag.String("checkpoint-dir", "", "spill warm-up checkpoint snapshots to this directory so they survive restarts (empty = memory only)")
		ckptBytes  = flag.Int64("checkpoint-disk-bytes", 0, "byte cap for -checkpoint-dir, oldest evicted first (0 = 1 GiB)")
		logLevel   = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof for the dtad process on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "error", err.Error())
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	svc := service.New(service.Config{
		Workers:             *workers,
		BatchWidth:          *batchWidth,
		CacheSize:           *cacheSize,
		QueueDepth:          *queueDepth,
		CheckpointDir:       *ckptDir,
		CheckpointDiskBytes: *ckptBytes,
		Logger:              logger,
	})
	// Bound what a client can hold open without sending: headers, a
	// request body (at most 1 MiB, see service.Handler), an idle
	// keep-alive connection. No WriteTimeout: a synchronous run replies
	// when its simulation ends and a sweep streams NDJSON for as long as
	// it runs.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *debugAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import
		// time; serving that mux on a dedicated listener keeps the debug
		// surface off the API address.
		go func() {
			logger.Info("dtad debug listener (host net/http/pprof)", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug listener failed", "error", err.Error())
			}
		}()
	}

	logger.Info("dtad listening",
		"engine", service.EngineVersion, "experiments", len(harness.All()),
		"workers", svc.Workers(), "batch_width", svc.BatchWidth(),
		"cache", *cacheSize, "addr", *addr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		logger.Info("dtad draining", "note", "in-flight requests and queued jobs finish first")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown error", "error", err.Error())
		}
		svc.Close()
	}()

	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "error", err.Error())
		os.Exit(1)
	}
	<-done
	logger.Info("dtad drained")
}
