// Command mpserved serves motion-planning queries over HTTP: a
// multi-tenant pool of parmp engines behind POST /v1/query and
// POST /v1/batch, with background roadmap growth, server-side request
// coalescing, a per-tenant path cache and bounded admission queues.
//
// Usage:
//
//	mpserved -addr :8931 -rounds 3 -batch-max 32
//
// Drive it with cmd/mploadgen; GET /v1/stats reports per-tenant
// counters and GET /healthz liveness.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parmp/internal/serve"
)

// A client that never finishes its request headers or its request body
// (at most 1 MiB), or leaves a keep-alive connection idle, is
// disconnected instead of holding the connection forever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listening server for h with those bounds.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

func main() {
	addr := flag.String("addr", ":8931", "listen address")
	maxTenants := flag.Int("max-tenants", 8, "engine pool capacity; least-recently-used tenants are evicted beyond it")
	rounds := flag.Int("rounds", 3, "default background growth rounds for tenants whose spec does not set rounds")
	growInterval := flag.Duration("grow-interval", 0, "pause between background growth rounds (0 = back-to-back)")
	queue := flag.Int("queue", 256, "per-tenant admission queue depth; a full queue answers 429")
	batchWorkers := flag.Int("batch-workers", 0, "batch workers per tenant (0 = GOMAXPROCS)")
	batchMax := flag.Int("batch-max", 32, "max queries coalesced into one batch (1 = no batching)")
	batchWindow := flag.Duration("batch-window", 200*time.Microsecond, "how long a batch waits for stragglers (0 = only already-queued requests join)")
	cache := flag.Int("cache", 4096, "path cache entries per tenant (0 = disable)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request budget, admission queueing included")
	k := flag.Int("k", 8, "default attachment count for queries that omit k")
	flag.Parse()

	cfg := serve.Config{
		MaxTenants:     *maxTenants,
		QueueDepth:     *queue,
		BatchWorkers:   *batchWorkers,
		BatchMax:       *batchMax,
		BatchWindow:    *batchWindow,
		CacheSize:      *cache,
		GrowRounds:     *rounds,
		GrowInterval:   *growInterval,
		RequestTimeout: *timeout,
		DefaultK:       *k,
	}
	// The flags use 0 for "off" (natural on a command line); the config
	// uses negative for "off" so that its zero value means "default".
	if *batchWindow == 0 {
		cfg.BatchWindow = -1
	}
	if *cache == 0 {
		cfg.CacheSize = -1
	}

	srv := serve.New(cfg)
	hs := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "mpserved: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "mpserved: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "mpserved: listening on %s (rounds=%d batch-max=%d queue=%d cache=%d)\n",
		*addr, *rounds, *batchMax, *queue, *cache)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mpserved:", err)
		os.Exit(1)
	}
	<-done
	srv.Close()
}
