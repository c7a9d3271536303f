package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// snapTestGraph builds a deterministic random graph for snapshot tests.
func snapTestGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			edges = append(edges, Canon(u, v))
		}
	}
	g := FromEdges(n, edges)
	if err := g.Validate(); err != nil {
		t.Fatalf("test graph invalid: %v", err)
	}
	return g
}

func writeSnapTemp(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.pgb")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	return path
}

// equalGraphs asserts full structural equality, not just fingerprints.
func equalGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		a, b := want.Neighbors(int32(u)), got.Neighbors(int32(u))
		if len(a) != len(b) {
			t.Fatalf("node %d degree mismatch: %d vs %d", u, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d neighbor %d mismatch: %d vs %d", u, i, b[i], a[i])
			}
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %016x vs %016x", got.Fingerprint(), want.Fingerprint())
	}
}

func TestSnapshotRoundTripMmap(t *testing.T) {
	g := snapTestGraph(t, 500, 2500, 1)
	path := writeSnapTemp(t, g)

	got, closer, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer closer.Close()
	equalGraphs(t, g, got)
	if err := got.Validate(); err != nil {
		t.Fatalf("opened graph fails full validation: %v", err)
	}
}

// TestSnapshotMmapVsPlainParity forces the fallback path through
// OpenSnapshot itself and checks it decodes the identical graph.
func TestSnapshotMmapVsPlainParity(t *testing.T) {
	g := snapTestGraph(t, 300, 1200, 2)
	path := writeSnapTemp(t, g)

	viaMmap, closer, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot (mmap): %v", err)
	}
	defer closer.Close()

	forcePlainSnapshot = true
	defer func() { forcePlainSnapshot = false }()
	viaPlain, plainCloser, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot (forced plain): %v", err)
	}
	defer plainCloser.Close()

	equalGraphs(t, viaMmap, viaPlain)
}

func TestSnapshotEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*Graph{New(0), New(5), FromEdges(2, []Edge{{U: 0, V: 1}})} {
		path := writeSnapTemp(t, g)
		got, closer, err := OpenSnapshot(path)
		if err != nil {
			t.Fatalf("n=%d m=%d: OpenSnapshot: %v", g.N(), g.M(), err)
		}
		equalGraphs(t, g, got)
		if err := closer.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

func TestSnapshotTruncatedRejected(t *testing.T) {
	g := snapTestGraph(t, 100, 400, 3)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 7, snapshotHeaderSize - 1, snapshotHeaderSize, len(full) / 2, len(full) - 1} {
		path := filepath.Join(t.TempDir(), "trunc.pgb")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenSnapshot(path); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
		if _, err := ReadSnapshotFile(path); err == nil {
			t.Fatalf("plain read accepted truncation at %d/%d bytes", cut, len(full))
		}
	}
}

func TestSnapshotCorruptHeaderRejected(t *testing.T) {
	g := snapTestGraph(t, 50, 120, 4)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) error {
		data := bytes.Clone(buf.Bytes())
		mutate(data)
		path := filepath.Join(t.TempDir(), "bad.pgb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenSnapshot(path)
		return err
	}
	if err := corrupt(func(d []byte) { d[0] = 'X' }); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Flip a header field without refreshing the checksum.
	if err := corrupt(func(d []byte) { d[16]++ }); err == nil {
		t.Fatal("checksummed header field flip accepted")
	}
	// Declare an inconsistent offset-table length WITH a valid checksum.
	if err := corrupt(func(d []byte) {
		binary.LittleEndian.PutUint64(d[40:], binary.LittleEndian.Uint64(d[40:])+1)
		binary.LittleEndian.PutUint64(d[56:], headerChecksum(d))
	}); err == nil {
		t.Fatal("inconsistent section lengths accepted")
	}
}

func TestSnapshotVersionMismatch(t *testing.T) {
	g := snapTestGraph(t, 50, 120, 5)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(data[8:], SnapshotVersion+1)
	binary.LittleEndian.PutUint64(data[56:], headerChecksum(data))
	path := filepath.Join(t.TempDir(), "future.pgb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenSnapshot(path)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("want ErrSnapshotVersion, got %v", err)
	}
	if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("plain read: want ErrSnapshotVersion, got %v", err)
	}
}

// TestSnapshotCorruptPayloadRejected flips an arena byte to an
// out-of-range neighbor id; open must fail instead of handing kernels a
// graph that panics.
func TestSnapshotCorruptPayloadRejected(t *testing.T) {
	g := snapTestGraph(t, 50, 120, 6)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	arenaStart := snapshotHeaderSize + 8*(g.N()+1)
	binary.LittleEndian.PutUint32(data[arenaStart:], uint32(g.N()+100))
	path := filepath.Join(t.TempDir(), "poison.pgb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshot(path); err == nil {
		t.Fatal("out-of-range neighbor accepted by mmap open")
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("out-of-range neighbor accepted by plain read")
	}
}

// TestSnapshotNonSimplePayloadRejected crafts payloads whose offsets
// and ids are all in range but whose neighbor segments break the simple
// graph invariants. The header checksum does not cover the payload, so
// only the structural sweep can catch them; both readers must fail with
// ErrSnapshotCorrupt.
func TestSnapshotNonSimplePayloadRejected(t *testing.T) {
	// path 0-1-2: the arena is [1 | 0 2 | 1]
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	arenaStart := snapshotHeaderSize + 8*(g.N()+1)
	for _, tc := range []struct {
		name  string
		arena [4]int32
	}{
		{"self entry", [4]int32{0, 0, 2, 1}},       // node 0 lists [0]
		{"duplicate entry", [4]int32{1, 0, 0, 1}},  // node 1 lists [0 0]
		{"unsorted segment", [4]int32{1, 2, 0, 1}}, // node 1 lists [2 0]
		{"out of range", [4]int32{1, 0, 2, 7}},     // node 2 lists [7]
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(buf.Bytes())
			for i, v := range tc.arena {
				binary.LittleEndian.PutUint32(data[arenaStart+4*i:], uint32(v))
			}
			path := filepath.Join(t.TempDir(), "bad.pgb")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := OpenSnapshot(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("OpenSnapshot: want ErrSnapshotCorrupt, got %v", err)
			}
			if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("ReadSnapshot: want ErrSnapshotCorrupt, got %v", err)
			}
		})
	}
}

func TestWriteSnapshotNilGraph(t *testing.T) {
	if err := WriteSnapshot(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}
