package server

import (
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"pgb/internal/datasets"
	"pgb/internal/graph"
)

// TestDatasetCacheBounded: resolving more distinct references than the
// cache holds keeps both the ref memo and the graph map at their limit.
func TestDatasetCacheBounded(t *testing.T) {
	spec, err := datasets.ByName("ER")
	if err != nil {
		t.Fatal(err)
	}
	c := newDatasetCache()
	for seed := int64(1); seed <= 40; seed++ {
		if _, err := c.load(nil, spec, 0.05, seed); err != nil {
			t.Fatal(err)
		}
	}
	if refs, graphs := c.refs.Len(), c.graphs.Len(); refs > 16 || graphs > 16 {
		t.Fatalf("after 40 refs: ref memo %d, graphs %d entries; want both <= 16", refs, graphs)
	}
	if st := c.stats(); st.Misses != 40 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 40 misses and no hits", st)
	}
}

// TestDatasetCacheFingerprintSharing: the dataset cache is keyed by
// graph fingerprint, so a reference resolved from a snapshot and the
// same graph generated in RAM occupy one entry — as do two different
// references that denote an identical graph.
func TestDatasetCacheFingerprintSharing(t *testing.T) {
	spec, err := datasets.ByName("ER")
	if err != nil {
		t.Fatal(err)
	}
	st, err := graph.OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := newDatasetCache()

	// Generated first (nil store): cached under its fingerprint.
	generated, err := c.load(nil, spec, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The same reference now ingested: the memoised fingerprint answers
	// from cache — no snapshot open, same pointer.
	if err := st.Put(datasets.RefFor("ER", 0.05, 3), generated); err != nil {
		t.Fatal(err)
	}
	again, err := c.load(st, spec, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again != generated {
		t.Fatal("same reference resolved to a second cache entry")
	}

	// A different reference whose snapshot holds the identical graph
	// lands on the existing entry: content beats coordinates.
	if err := st.Put(datasets.RefFor("ER", 0.05, 4), generated); err != nil {
		t.Fatal(err)
	}
	alias, err := c.load(st, spec, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if alias != generated {
		t.Fatal("identical graph under a second reference got its own cache entry")
	}
}

// TestCompareServedFromSnapshotParity: a compare answered by a server
// whose datasets come from ingested snapshots is identical to one
// computed from in-RAM generation.
func TestCompareServedFromSnapshotParity(t *testing.T) {
	req := map[string]any{
		"truth":     map[string]any{"dataset": "ER", "scale": 0.05, "seed": 3},
		"synthetic": map[string]any{"dataset": "BA", "scale": 0.05, "seed": 3},
		"seed":      9,
		"queries":   []string{"DegDist", "GCC", "CD"},
	}
	type compareResp struct {
		Rows   []compareRow `json:"rows"`
		Cached bool         `json:"cached"`
	}

	// Server over a plain data dir: both datasets generated in RAM.
	_, ramTS := newTestServer(t, t.TempDir())
	var ram compareResp
	if code := postJSON(t, ramTS.URL+"/v1/compare", req, &ram); code != http.StatusOK {
		t.Fatalf("RAM compare status %d", code)
	}

	// Second server over a data dir whose snapshot store was populated
	// by an ingest beforehand — its graphs arrive via mmap'd snapshots.
	snapDir := t.TempDir()
	st, err := graph.OpenSnapshotStore(filepath.Join(snapDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ER", "BA"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(datasets.RefFor(name, 0.05, 3), spec.Load(0.05, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapSrv, snapTS := newTestServer(t, snapDir)
	for _, name := range []string{"ER", "BA"} {
		if !snapSrv.store.Has(datasets.RefFor(name, 0.05, 3)) {
			t.Fatalf("server did not adopt the ingested snapshot for %s", name)
		}
	}
	var snap compareResp
	if code := postJSON(t, snapTS.URL+"/v1/compare", req, &snap); code != http.StatusOK {
		t.Fatalf("snapshot compare status %d", code)
	}

	if snap.Cached {
		t.Fatal("snapshot server answered from cache; parity not exercised")
	}
	if !reflect.DeepEqual(ram.Rows, snap.Rows) {
		t.Fatalf("rows diverge:\nRAM:      %+v\nsnapshot: %+v", ram.Rows, snap.Rows)
	}
}
