package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pgb"
	"pgb/internal/graph"
)

// ingest-open: one op is one snapshot-store round. All eight datasets
// are generated at paper size with a fresh seed and ingested into a
// fresh store (Load + Put); the store is closed and reopened, and every
// ref is resolved through pgb.Load with the store (mmap) and through
// graph.ReadSnapshotFile (plain read). No profile or mechanism work runs.

const ingestScale = 1

// snapshotBytes is the size of g's snapshot file: a 64-byte header, the
// offset table and the neighbor arena.
func snapshotBytes(g *pgb.Graph) float64 {
	return float64(64 + 8*(g.N()+1) + 8*g.M())
}

// ingestRound runs op i of an ingest-open run in a store directory under
// root; tr is nil on untraced passes.
func ingestRound(tr *tracer, root string, seed int64, i int) opResult {
	start := time.Now()
	op := tr.begin(opSpan, -1, i)
	value, err := ingestOnce(tr, op, i, filepath.Join(root, fmt.Sprintf("store-%d", i)), opSeed(seed, i))
	tr.end(op)
	r := opResult{Index: i, Ms: durMs(time.Since(start)), Value: value}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

func ingestOnce(tr *tracer, op, i int, dir string, seed int64) (string, error) {
	defer os.RemoveAll(dir)
	names := pgb.Datasets()
	srcs := make([]pgb.Source, len(names))
	fps := make([]uint64, len(names))

	id := tr.begin("graph.store_open", op, i)
	st, err := pgb.OpenSnapshotStore(dir)
	tr.end(id)
	if err != nil {
		return "", err
	}
	for d, name := range names {
		srcs[d] = pgb.Source{Dataset: name, Scale: ingestScale, Seed: seed}
		id = tr.begin("datasets.load", op, i)
		g, err := pgb.Load(srcs[d])
		tr.end(id)
		if err != nil {
			_ = st.Close() // the load error is the one to report
			return "", err
		}
		id = tr.begin("graph.fingerprint", op, i)
		fps[d] = g.Fingerprint()
		tr.end(id)
		id = tr.begin("graph.snapshot_put", op, i)
		err = st.Put(srcs[d].Ref(), g)
		tr.end(id)
		if err != nil {
			_ = st.Close() // the put error is the one to report
			return "", fmt.Errorf("ingesting %s: %w", name, err)
		}
		tr.add("put.bytes", snapshotBytes(g))
	}
	id = tr.begin("graph.store_close", op, i)
	err = st.Close()
	tr.end(id)
	if err != nil {
		return "", err
	}

	id = tr.begin("graph.store_open", op, i)
	st, err = pgb.OpenSnapshotStore(dir)
	tr.end(id)
	if err != nil {
		return "", err
	}
	if err := resolveAll(tr, op, i, st, srcs, fps); err != nil {
		_ = st.Close() // the check failure is the one to report
		return "", err
	}
	id = tr.begin("graph.store_close", op, i)
	err = st.Close()
	tr.end(id)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for d, fp := range fps {
		fmt.Fprintf(h, "%s:%016x\n", names[d], fp)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// resolveAll opens every ingested ref through the reopened store (mmap)
// and reads its snapshot file (plain read), checking that both
// fingerprints equal the generated graph's.
func resolveAll(tr *tracer, op, i int, st *graph.SnapshotStore, srcs []pgb.Source, fps []uint64) error {
	for d, src := range srcs {
		src.Store = st
		tr.add("store.lookups", 1)
		if !st.Has(src.Ref()) {
			return fmt.Errorf("%s: not in the reopened store", src.Dataset)
		}
		tr.add("store.hits", 1)
		id := tr.begin("graph.snapshot_open", op, i)
		g, err := pgb.Load(src)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("graph.fingerprint", op, i)
		mapped := g.Fingerprint()
		tr.end(id)
		id = tr.begin("graph.snapshot_read", op, i)
		g, err = graph.ReadSnapshotFile(st.SnapshotPath(fps[d]))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("graph.fingerprint", op, i)
		read := g.Fingerprint()
		tr.end(id)
		if mapped != fps[d] || read != fps[d] {
			return fmt.Errorf("%s: fingerprints differ: generated %016x, mmap %016x, plain read %016x",
				src.Dataset, fps[d], mapped, read)
		}
	}
	return nil
}
