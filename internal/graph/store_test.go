package graph

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// storeContract exercises the Store interface semantics shared by both
// implementations.
func storeContract(t *testing.T, st Store) {
	t.Helper()
	ref := Ref{Dataset: "X", Scale: 0.5, Seed: 7}
	if st.Has(ref) {
		t.Fatal("empty store claims to hold a ref")
	}
	if _, ok := st.FingerprintOf(ref); ok {
		t.Fatal("empty store reports a fingerprint")
	}
	if _, err := st.Open(ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}

	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err := st.Put(ref, g); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !st.Has(ref) {
		t.Fatal("Has false after Put")
	}
	fp, ok := st.FingerprintOf(ref)
	if !ok || fp != g.Fingerprint() {
		t.Fatalf("FingerprintOf = %016x, %v; want %016x, true", fp, ok, g.Fingerprint())
	}
	got, err := st.Open(ref)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	equalGraphs(t, g, got)

	// A distinct ref stays distinct.
	other := Ref{Dataset: "X", Scale: 0.5, Seed: 8}
	if st.Has(other) {
		t.Fatal("sibling ref resolved without a Put")
	}
	if err := st.Put(other, g); err != nil {
		t.Fatal(err)
	}
	if fp2, _ := st.FingerprintOf(other); fp2 != fp {
		t.Fatalf("identical graph under two refs has two fingerprints: %016x vs %016x", fp2, fp)
	}
	if err := st.Put(ref, New(2)); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	got, err = st.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 2 || got.M() != 0 {
		t.Fatalf("re-Put not visible: n=%d m=%d", got.N(), got.M())
	}
	if err := st.Put(ref, nil); err == nil {
		t.Fatal("nil graph accepted by Put")
	}
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

func TestSnapshotStoreContract(t *testing.T) {
	st, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	storeContract(t, st)
}

// TestSnapshotStorePersistence reopens the store directory and expects
// the index and payloads to survive — the `pgb ingest` then `pgb serve`
// handoff.
func TestSnapshotStorePersistence(t *testing.T) {
	dir := t.TempDir()
	ref := Ref{Dataset: "Facebook", Scale: 0.25, Seed: 42}
	g := snapTestGraph(t, 400, 1600, 9)

	st, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ref, g); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if fp, ok := st2.FingerprintOf(ref); !ok || fp != g.Fingerprint() {
		t.Fatalf("index lost across reopen: %016x, %v", fp, ok)
	}
	got, err := st2.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
}

// TestSnapshotStoreSharedPayload checks content addressing: two refs to
// one graph share a single snapshot file.
func TestSnapshotStoreSharedPayload(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := snapTestGraph(t, 100, 300, 10)
	if err := st.Put(Ref{Dataset: "A", Scale: 1, Seed: 1}, g); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Ref{Dataset: "B", Scale: 1, Seed: 2}, g); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "csr-*.pgb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("identical graph stored %d times: %v", len(snaps), snaps)
	}
}

// TestSnapshotStoreDeletedPayload: an index entry whose snapshot file
// was removed behaves as absent, not as an open failure.
func TestSnapshotStoreDeletedPayload(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ref := Ref{Dataset: "A", Scale: 1, Seed: 1}
	g := snapTestGraph(t, 60, 150, 11)
	if err := st.Put(ref, g); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.SnapshotPath(g.Fingerprint())); err != nil {
		t.Fatal(err)
	}
	if st.Has(ref) {
		t.Fatal("Has true for a deleted payload")
	}
	if _, err := st.Open(ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound for deleted payload, got %v", err)
	}
}

func TestSnapshotStoreRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotStore(dir); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

func TestRefKeyCanonical(t *testing.T) {
	a := Ref{Dataset: "Facebook", Scale: 0.25, Seed: 42}
	b := Ref{Dataset: "Facebook", Scale: 0.25, Seed: 42}
	if a.Key() != b.Key() {
		t.Fatalf("equal refs, unequal keys: %q vs %q", a.Key(), b.Key())
	}
	distinct := map[string]bool{}
	for _, r := range []Ref{a, {Dataset: "Facebook", Scale: 0.3, Seed: 42}, {Dataset: "Facebook", Scale: 0.25, Seed: 43}, {Dataset: "ER", Scale: 0.25, Seed: 42}} {
		if distinct[r.Key()] {
			t.Fatalf("key collision at %q", r.Key())
		}
		distinct[r.Key()] = true
	}
}
