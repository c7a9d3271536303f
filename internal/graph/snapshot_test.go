package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// TestSnapshotMmapVsPlainParity checks that the plain read decodes the
// graph the mapping views, and that a file mmap refuses (a zero-length
// one) takes OpenSnapshot's fallback to the plain read and fails there
// with the plain read's own error.
func TestSnapshotMmapVsPlainParity(t *testing.T) {
	g := snapTestGraph(t, 300, 1200, 2)
	path := writeSnapTemp(t, g)

	viaMmap, closer, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot (mmap): %v", err)
	}
	defer closer.Close()

	viaPlain, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	equalGraphs(t, viaMmap, viaPlain)

	empty := filepath.Join(t.TempDir(), "empty.pgb")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, openErr := OpenSnapshot(empty)
	_, readErr := ReadSnapshotFile(empty)
	if !errors.Is(openErr, ErrSnapshotCorrupt) || readErr == nil || openErr.Error() != readErr.Error() {
		t.Fatalf("zero-length file: OpenSnapshot %v, ReadSnapshotFile %v", openErr, readErr)
	}
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
		if _, _, err := OpenSnapshot(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: want ErrSnapshotCorrupt, got %v", cut, len(full), err)
		}
		if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("plain read of truncation at %d/%d bytes: want ErrSnapshotCorrupt, got %v", cut, len(full), err)
		}
	}
}

func TestSnapshotCorruptHeaderRejected(t *testing.T) {
	g := snapTestGraph(t, 50, 120, 4)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	// corrupt writes a mutated copy and returns the plain read's error
	// after checking that OpenSnapshot fails with the same one.
	corrupt := func(mutate func([]byte)) error {
		data := bytes.Clone(buf.Bytes())
		mutate(data)
		path := filepath.Join(t.TempDir(), "bad.pgb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, openErr := OpenSnapshot(path)
		_, readErr := ReadSnapshotFile(path)
		if (openErr == nil) != (readErr == nil) || (openErr != nil && openErr.Error() != readErr.Error()) {
			t.Fatalf("readers disagree: OpenSnapshot %v, ReadSnapshotFile %v", openErr, readErr)
		}
		return readErr
	}
	if err := corrupt(func(d []byte) { d[0] = 'X' }); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bad magic: want ErrSnapshotCorrupt, got %v", err)
	}
	// Flip a header field without refreshing the checksum.
	if err := corrupt(func(d []byte) { d[16]++ }); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("checksummed header field flip: want ErrSnapshotCorrupt, got %v", err)
	}
	// Declare an inconsistent offset-table length WITH a valid checksum.
	if err := corrupt(func(d []byte) {
		binary.LittleEndian.PutUint64(d[40:], binary.LittleEndian.Uint64(d[40:])+1)
		binary.LittleEndian.PutUint64(d[56:], headerChecksum(d))
	}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("inconsistent section lengths: want ErrSnapshotCorrupt, got %v", err)
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
			if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("ReadSnapshotFile: want ErrSnapshotCorrupt, got %v", err)
			}
		})
	}
}

func TestWriteSnapshotNilGraph(t *testing.T) {
	if err := WriteSnapshot(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestSnapshotPayloadMustMatchHeader: payloads whose every segment is
// sorted, in range and free of its own node, so validateShape passes,
// but which are not the graph the header describes. Both readers must
// fail with ErrSnapshotCorrupt.
func TestSnapshotPayloadMustMatchHeader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *Graph
		arena []int32
	}{
		// path 0-1-2 plus node 3, arena [1 | 0 2 | 1 | ]: node 0's
		// neighbor 1 becomes the unused id 3.
		{"flipped neighbor", FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}), []int32{3, 0, 2, 1}},
		// matching {0-1, 2-3}, arena [1 | 0 | 3 | 2]: node 3 lists 1
		// instead of 2. The upper entries, all the fingerprint hashes,
		// are untouched, so only the symmetry check sees it.
		{"asymmetric lower entry", FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}), []int32{1, 0, 3, 1}},
		// the same matching rewritten as the valid, symmetric matching
		// {0-2, 1-3}: only the fingerprint check sees it.
		{"another valid graph", FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}), []int32{2, 3, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, tc.g); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			arenaStart := snapshotHeaderSize + 8*(tc.g.N()+1)
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
			if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("ReadSnapshotFile: want ErrSnapshotCorrupt, got %v", err)
			}
		})
	}
}

// TestSnapshotOpenSeedsFingerprint: a verified open leaves the header's
// fingerprint in the graph's memo, on both readers.
func TestSnapshotOpenSeedsFingerprint(t *testing.T) {
	g := snapTestGraph(t, 60, 150, 11)
	path := writeSnapTemp(t, g)
	read, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for _, c := range []struct {
		reader string
		g      *Graph
	}{{"ReadSnapshotFile", read}, {"OpenSnapshot", mapped}} {
		if got := c.g.fp.Load(); got != walkFingerprint(g) {
			t.Fatalf("%s: memo holds %016x, want %016x", c.reader, got, walkFingerprint(g))
		}
	}
}

// TestSnapshotHeaderBoundsShape: a header with a valid checksum still
// fails when n exceeds the int32 node-id space or m exceeds n(n-1)/2 —
// values whose payload sizes would otherwise overflow or allocate
// without bound before any payload byte is read.
func TestSnapshotHeaderBoundsShape(t *testing.T) {
	for _, h := range []SnapshotHeader{
		{Version: SnapshotVersion, N: 1 << 40},
		{Version: SnapshotVersion, N: 1 << 61, M: 1 << 61},
		{Version: SnapshotVersion, N: 3, M: 4},
		{Version: SnapshotVersion, N: 0, M: 1},
	} {
		if _, err := decodeSnapshotHeader(h.encode()); err == nil {
			t.Errorf("header n=%d m=%d accepted", h.N, h.M)
		}
	}
	if _, err := decodeSnapshotHeader(SnapshotHeader{Version: SnapshotVersion, N: 3, M: 3}.encode()); err != nil {
		t.Errorf("complete graph on 3 nodes rejected: %v", err)
	}
}

// TestSnapshotLyingHeaderIsCheap: a 64-byte file whose header, checksum
// valid, claims far more payload than the file holds fails on both
// readers without allocating for the claim. The second header's arena
// byte count, 8m, overflows int64, so a size check in bytes would wrap
// and pass.
func TestSnapshotLyingHeaderIsCheap(t *testing.T) {
	for _, h := range []SnapshotHeader{
		{Version: SnapshotVersion, N: 1 << 24},
		{Version: SnapshotVersion, N: math.MaxInt32, M: math.MaxInt32 * (math.MaxInt32 - 1) / 2},
	} {
		path := filepath.Join(t.TempDir(), "liar.pgb")
		if err := os.WriteFile(path, h.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, openErr := OpenSnapshot(path)
		_, readErr := ReadSnapshotFile(path)
		runtime.ReadMemStats(&after)
		if !errors.Is(openErr, ErrSnapshotCorrupt) || !errors.Is(readErr, ErrSnapshotCorrupt) {
			t.Fatalf("n=%d m=%d: want ErrSnapshotCorrupt from both readers, got OpenSnapshot %v, ReadSnapshotFile %v", h.N, h.M, openErr, readErr)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("n=%d m=%d: rejecting a 64-byte file allocated %d bytes", h.N, h.M, d)
		}
	}
}

// TestGoldenSnapshotV1 pins format version 1 with a committed file,
// written once from the graph below: both readers must accept it, it must
// hash to the fingerprint its header records, and WriteSnapshotFile
// must still write exactly these bytes. A layout change that breaks
// any of this needs a new SnapshotVersion and a new golden file.
func TestGoldenSnapshotV1(t *testing.T) {
	const path = "testdata/csr-v1.pgb"
	// A triangle with a pendant path, and an isolated node.
	g := FromEdges(7, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeSnapshotHeader(golden)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Fingerprint != g.Fingerprint() {
		t.Fatalf("header version %d fingerprint %016x, want version 1 fingerprint %016x", h.Version, h.Fingerprint, g.Fingerprint())
	}

	read, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	equalGraphs(t, g, read)
	opened, closer, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer closer.Close()
	equalGraphs(t, g, opened)

	out := filepath.Join(t.TempDir(), "csr.pgb")
	if err := WriteSnapshotFile(out, g); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("WriteSnapshotFile wrote %d bytes that differ from the %d-byte golden file", len(written), len(golden))
	}
}
