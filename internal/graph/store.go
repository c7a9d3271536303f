package graph

// store.go is the storage-agnostic seam between graph *sources* and
// everything that consumes graphs (DESIGN.md §13): a Store resolves a
// dataset reference to a *Graph without the caller knowing whether the
// graph lives in RAM or in an on-disk CSR snapshot. Two implementations
// ship: MemStore (the historical in-RAM behaviour, now behind the same
// interface) and SnapshotStore (a data directory of fingerprint-
// addressed snapshot files plus a ref index, written by `pgb ingest`).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrNotFound is returned by Store.Open for a reference the store does
// not hold. Callers fall back to generation (and may Put the result
// back) on exactly this error; anything else is a real failure.
var ErrNotFound = errors.New("graph: reference not in store")

// Ref names a graph in a Store by the dataset coordinates it was
// ingested under: the dataset name plus the (scale, seed) pair that
// makes generation deterministic. Scale must already be normalized to
// (0, 1] (datasets.NormalizeScale) so that cosmetically different
// out-of-range values do not mint distinct keys.
type Ref struct {
	Dataset string
	Scale   float64
	Seed    int64
}

// Key is the canonical string form of the reference — the index key of
// SnapshotStore and the map key of MemStore.
func (r Ref) Key() string { return fmt.Sprintf("%s@%g#%d", r.Dataset, r.Scale, r.Seed) }

// Store resolves dataset references to graphs. Implementations are safe
// for concurrent use. Graphs returned by Open are shared and immutable:
// callers must not modify them (a snapshot-backed graph is hardware
// read-only; writing through it faults). Filling a store is up to the
// concrete type (MemStore.Put, SnapshotStore.Put).
type Store interface {
	// Open returns the graph ref names, or ErrNotFound.
	Open(ref Ref) (*Graph, error)
}

// ---- MemStore ---------------------------------------------------------

// MemStore is the in-memory Store: a map from ref key to graph. It is
// the behaviour every pre-store call path had implicitly — graphs live
// on the heap for the life of the process — made explicit behind the
// seam so callers are written against Store once.
type MemStore struct {
	mu     sync.Mutex
	graphs map[string]*Graph
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{graphs: make(map[string]*Graph)}
}

// Open implements Store.
func (s *MemStore) Open(ref Ref) (*Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[ref.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref.Key())
	}
	return g, nil
}

// Put stores g under ref, replacing any previous association.
//
//pgb:export how callers of pgb.NewMemStore outside the module fill the store
func (s *MemStore) Put(ref Ref, g *Graph) error {
	if g == nil {
		return errors.New("graph: cannot store a nil graph")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graphs[ref.Key()] = g
	return nil
}

// ---- SnapshotStore ----------------------------------------------------

// storeIndexVersion guards the index file schema.
const storeIndexVersion = 1

// storeIndex is the JSON form of the ref index: ref key → the
// fingerprint whose snapshot file holds the graph. Addressing the
// payload by fingerprint means two refs that produce identical graphs
// share one snapshot file.
type storeIndex struct {
	Version int               `json:"pgb_store"`
	Entries map[string]string `json:"entries"` // Ref.Key() -> %016x fingerprint
}

// SnapshotStore is the DataDir-backed Store: CSR snapshot files named
// by fingerprint (csr-<fp>.pgb) plus an index.json mapping ref keys to
// fingerprints, all inside one directory. Open prefers mmap (see
// OpenSnapshot) and memoizes the mapping per fingerprint, so repeated
// opens of one snapshot share a single mapping; Close releases every
// mapping, after which previously returned graphs must not be used.
type SnapshotStore struct {
	dir string

	mu    sync.Mutex
	index map[string]uint64 // Ref.Key() -> fingerprint
	open  map[uint64]*openSnapshot
}

type openSnapshot struct {
	g      *Graph
	closer io.Closer
}

// OpenSnapshotStore opens (creating if needed) the snapshot store
// rooted at dir. A missing index means an empty store; a present but
// unreadable index is an error — silently ignoring it would regenerate
// datasets the operator already paid to ingest.
func OpenSnapshotStore(dir string) (*SnapshotStore, error) {
	if dir == "" {
		return nil, errors.New("graph: snapshot store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graph: creating snapshot store: %w", err)
	}
	s := &SnapshotStore{
		dir:   dir,
		index: make(map[string]uint64),
		open:  make(map[uint64]*openSnapshot),
	}
	data, err := os.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("graph: reading store index: %w", err)
	}
	var idx storeIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("graph: parsing store index %s: %w", s.indexPath(), err)
	}
	if idx.Version != storeIndexVersion {
		return nil, fmt.Errorf("graph: store index version %d, this build reads %d", idx.Version, storeIndexVersion)
	}
	// Sorted so that with several corrupt entries the one reported is
	// the same on every run.
	keys := make([]string, 0, len(idx.Entries))
	for key := range idx.Entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		hex := idx.Entries[key]
		var fp uint64
		if _, err := fmt.Sscanf(hex, "%x", &fp); err != nil {
			return nil, fmt.Errorf("graph: store index entry %q has bad fingerprint %q", key, hex)
		}
		s.index[key] = fp
	}
	return s, nil
}

func (s *SnapshotStore) indexPath() string { return filepath.Join(s.dir, "index.json") }

// SnapshotPath returns the file path of the snapshot holding fp,
// whether or not it exists yet.
func (s *SnapshotStore) SnapshotPath(fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("csr-%016x.pgb", fp))
}

// Open implements Store: the ref resolves through the index to a
// fingerprint-addressed snapshot file, opened via mmap with plain-read
// fallback and memoized per fingerprint. A missing snapshot file is
// ErrNotFound: an index entry whose payload was deleted resolves the
// same as no entry.
func (s *SnapshotStore) Open(ref Ref) (*Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, ok := s.index[ref.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref.Key())
	}
	if snap, ok := s.open[fp]; ok {
		return snap.g, nil
	}
	g, closer, err := OpenSnapshot(s.SnapshotPath(fp))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: no snapshot %016x", ErrNotFound, fp)
	}
	if err != nil {
		return nil, err
	}
	s.open[fp] = &openSnapshot{g: g, closer: closer}
	return g, nil
}

// Put stores g under ref as a snapshot file named by its fingerprint
// (skipped when that file already exists — content addressing makes the
// write idempotent) and updates the ref index atomically (temp file +
// rename).
func (s *SnapshotStore) Put(ref Ref, g *Graph) error {
	if g == nil {
		return errors.New("graph: cannot store a nil graph")
	}
	fp := g.Fingerprint()
	path := s.SnapshotPath(fp)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := WriteSnapshotFile(path, g); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index[ref.Key()] = fp
	return s.writeIndexLocked()
}

// writeIndexLocked persists the index atomically; s.mu must be held.
func (s *SnapshotStore) writeIndexLocked() error {
	idx := storeIndex{Version: storeIndexVersion, Entries: make(map[string]string, len(s.index))}
	for key, fp := range s.index { //pgb:deterministic Sprintf is pure per key and json.MarshalIndent emits object keys sorted, so the written index is byte-stable
		idx.Entries[key] = fmt.Sprintf("%016x", fp)
	}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.indexPath())
}

// Has reports whether Open(ref) would find the graph, without loading
// it: a deleted payload does not count.
func (s *SnapshotStore) Has(ref Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, ok := s.index[ref.Key()]
	if !ok {
		return false
	}
	if _, ok := s.open[fp]; ok {
		return true
	}
	_, err := os.Stat(s.SnapshotPath(fp))
	return err == nil
}

// FingerprintOf returns the stored graph's fingerprint from the index,
// without loading it; ok is false when ref is absent.
func (s *SnapshotStore) FingerprintOf(ref Ref) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, ok := s.index[ref.Key()]
	return fp, ok
}

// Close releases every open snapshot mapping. Graphs previously
// returned by Open must not be used afterwards.
func (s *SnapshotStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for fp, snap := range s.open { //pgb:deterministic mappings are disjoint and close order is immaterial; the retained first error is best-effort
		if err := snap.closer.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, fp)
	}
	return first
}
