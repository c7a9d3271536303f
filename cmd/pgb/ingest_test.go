package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a buffer and
// returns what it printed — the cmd* functions print straight to stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	runErr := <-errc
	os.Stdout = old
	_ = w.Close()
	out, _ := io.ReadAll(r)
	_ = r.Close()
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput: %s", runErr, out)
	}
	return string(out)
}

// TestCmdIngestThenSnapshotGrid is the in-process form of the CI smoke:
// ingest a dataset, then check a grid run resolved from the snapshot
// store prints byte-for-byte what the in-RAM run prints.
func TestCmdIngestThenSnapshotGrid(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snapshots")
	ingestArgs := []string{"-snapshot", snapDir, "-datasets", "BA", "-scale", "0.02", "-seed", "42"}
	first := captureStdout(t, func() error { return cmdIngest(ingestArgs) })
	if !strings.Contains(first, "BA") || !strings.Contains(first, "fingerprint=") {
		t.Fatalf("ingest output: %q", first)
	}
	second := captureStdout(t, func() error { return cmdIngest(ingestArgs) })
	if !strings.Contains(second, "already ingested") {
		t.Fatalf("re-ingest not idempotent: %q", second)
	}

	gridArgs := []string{"-scale", "0.02", "-reps", "1", "-algs", "DGG", "-datasets", "BA", "-eps", "1"}
	ram := captureStdout(t, func() error { return cmdGrid("table7", gridArgs) })
	snap := captureStdout(t, func() error {
		return cmdGrid("table7", append([]string{"-snapshot", snapDir}, gridArgs...))
	})
	if ram != snap {
		t.Fatalf("snapshot-resolved grid diverges from in-RAM grid:\n--- RAM\n%s--- snapshot\n%s", ram, snap)
	}
}

func TestCmdIngestUnknownDataset(t *testing.T) {
	if err := cmdIngest([]string{"-snapshot", t.TempDir(), "-datasets", "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
