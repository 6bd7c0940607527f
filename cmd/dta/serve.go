package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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

// setupServe: `dta serve` runs dtad, the experiment harness as a
// long-running daemon: an HTTP/JSON API over a job queue, a bounded
// pool of simulation workers, and a content-addressed LRU result cache
// keyed by deterministic run keys (see internal/service and SERVICE.md).
// Each worker runs one job at a time; jobs agreeing on the
// program-shaping options (quick, seed) share the worker's run cache.
//
// -debug-addr (off by default) serves Go's net/http/pprof on a second
// listener — CPU/heap/goroutine profiles of the daemon process itself.
// This is distinct from the guest cycle profiler (POST
// /v1/runs?profile=1 on the main listener), which profiles the
// SIMULATED machine; see OBSERVABILITY.md. Bind it to localhost: the
// debug listener is unauthenticated and can run arbitrary profiles.
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting,
// in-flight requests finish, queued jobs run to completion, then the
// command returns.
func setupServe(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "workers")
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", service.DefaultCacheSize, "max cached result documents")
	queueDepth := fs.Int("queue-depth", 1024, "max queued jobs")
	logLevel := fs.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof for this process on this address (e.g. localhost:6060; empty = off)")
	return func(args []string) error {
		if len(args) > 0 {
			return usagef("unexpected operands %q", args)
		}
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			return usagef("-log-level %q: %v", *logLevel, err)
		}
		logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

		svc := service.New(service.Config{
			Workers:    sh.workers,
			CacheSize:  *cacheSize,
			QueueDepth: *queueDepth,
			Logger:     logger,
		})
		// Bound what a client can hold open without sending: headers, a
		// request body (at most 1 MiB, see service.Handler), an idle
		// keep-alive connection. No WriteTimeout: a synchronous run
		// replies when its simulation ends and a sweep streams NDJSON
		// for as long as it runs.
		srv := &http.Server{
			Addr:              *addr,
			Handler:           svc.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}

		if *debugAddr != "" {
			// The pprof handlers register on http.DefaultServeMux at
			// import time; serving that mux on a dedicated listener keeps
			// the debug surface off the API address.
			go func() {
				logger.Info("dtad debug listener (host net/http/pprof)", "addr", *debugAddr)
				if err := http.ListenAndServe(*debugAddr, nil); err != nil {
					logger.Error("debug listener failed", "error", err.Error())
				}
			}()
		}

		logger.Info("dtad listening",
			"engine", service.EngineVersion, "experiments", len(harness.All()),
			"workers", svc.Workers(),
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
			return fmt.Errorf("listen: %w", err)
		}
		<-done
		logger.Info("dtad drained")
		return nil
	}
}
