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
	"syscall"
	"time"

	"pgb/internal/server"
)

// cmdServe runs the benchmark-as-a-service HTTP API (DESIGN.md §9, README
// "Serving PGB"): synchronous generate/compare endpoints plus async grid-run
// jobs with SSE progress, cancellation, a content-addressed result cache,
// and crash recovery from the checkpoint manifests in -data-dir. Dataset
// references resolve through the snapshot store at -snapshot (default:
// the snapshots/ directory inside -data-dir), so graphs ingested with
// `pgb ingest` are served from their snapshots instead of regenerated.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := addDataDirFlag(fs, "pgb-serve-data")
	workers := addJobsFlag(fs, 1, "concurrent grid-run jobs (the async worker pool), and separately concurrent /v1/generate and /v1/compare computations")
	runWorkers := fs.Int("run-jobs", 1, "parallelism budget inside each run (grid cells + kernels)")
	cacheN := fs.Int("cache", 128, "content-addressed result cache entries")
	snapDir := addSnapshotFlag(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "pgb serve: ", log.LstdFlags)
	// An explicit -snapshot overrides the server's default store
	// location (DataDir/snapshots); the store we open here outlives the
	// server, so it is closed after srv.Close.
	store, err := openSnapshotStore(*snapDir)
	if err != nil {
		return err
	}
	opts := server.Options{
		DataDir:       *dataDir,
		Workers:       *workers,
		WorkersPerRun: *runWorkers,
		CacheEntries:  *cacheN,
		Logf:          logger.Printf,
	}
	if store != nil {
		opts.Store = store
		defer store.Close()
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Graceful drain: running jobs are cancelled between cells and
		// their manifests keep everything finished so far; a later
		// `pgb serve` over the same -data-dir resumes them.
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
	}()
	logger.Printf("listening on %s (data %s, %d job worker(s))", *addr, *dataDir, *workers)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// ListenAndServe returns the moment Shutdown *starts*; wait for the
	// drain (bounded by the 10s context) before tearing the server down.
	<-drained
	logger.Printf("shut down; run manifests in %s resume on restart", *dataDir)
	return nil
}

// cmdVersion prints the build identification served on GET /version.
func cmdVersion() {
	v := server.Version()
	fmt.Printf("pgb %s", v.Version)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(" (%s", rev)
		if v.Dirty {
			fmt.Print("-dirty")
		}
		fmt.Print(")")
	}
	if v.GoVersion != "" {
		fmt.Printf(" %s", v.GoVersion)
	}
	if v.BuildTime != "" {
		fmt.Printf(" built %s", v.BuildTime)
	}
	fmt.Println()
}
