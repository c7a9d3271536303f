package graph

// snapshot.go is the on-disk form of the CSR core (DESIGN.md §13): a
// versioned binary file holding exactly the in-memory layout of §8 —
// one offset table plus one neighbor arena — so a graph can be served
// from disk without re-materialising it. The file is little-endian and
// every section starts 8-byte aligned, which lets OpenSnapshot alias
// the mapped bytes directly as the graph's []int64/[]int32 slices on
// little-endian hosts; ReadSnapshot is the portable plain-read decoder
// used as the fallback on platforms without mmap (and on big-endian
// hosts, where aliasing would misread the fixed wire order).
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "PGB-CSR\x00"
//	8       4     format version (uint32, currently 1)
//	12      4     reserved flags (uint32, zero)
//	16      8     n — node count (int64)
//	24      8     m — edge count (int64)
//	32      8     fingerprint — Graph.Fingerprint() of the payload
//	40      8     offLen — offset-table entries, always n+1 (int64)
//	48      8     arenaLen — neighbor-arena entries, always 2m (int64)
//	56      8     header checksum — FNV-64a over bytes [0, 56)
//	64      8·(n+1)   offset table ([]int64)
//	...     4·2m      neighbor arena ([]int32)
//
// The arena begins at 64 + 8·(n+1), itself a multiple of 8, so both
// sections satisfy their alignment with no padding. A snapshot is
// immutable once written; writers go through WriteSnapshotFile, which
// builds the file under a temporary name and renames it into place.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// snapshotMagic identifies a PGB CSR snapshot file.
var snapshotMagic = [8]byte{'P', 'G', 'B', '-', 'C', 'S', 'R', 0}

// SnapshotVersion is the format version this build reads and writes;
// it is bumped on any incompatible layout change.
const SnapshotVersion = 1

// snapshotHeaderSize is the fixed byte length of the header section.
const snapshotHeaderSize = 64

// ErrSnapshotVersion marks a snapshot written by an incompatible
// format version; callers can errors.Is on it to distinguish "re-ingest
// needed" from corruption.
var ErrSnapshotVersion = errors.New("graph: unsupported snapshot version")

// ErrSnapshotCorrupt marks a snapshot whose payload breaks the CSR
// invariants: inconsistent section lengths, decreasing offsets, or a
// neighbor segment that is out of range, unsorted, duplicated or lists
// its own node.
var ErrSnapshotCorrupt = errors.New("graph: corrupt snapshot payload")

// SnapshotHeader is the decoded fixed header of a snapshot file: the
// graph's shape and fingerprint, readable without loading the payload.
type SnapshotHeader struct {
	Version     uint32
	N           int64  // node count
	M           int64  // edge count
	Fingerprint uint64 // Graph.Fingerprint() of the payload
}

// payloadSize returns the byte length of the two payload sections.
func (h SnapshotHeader) payloadSize() int64 {
	return 8*(h.N+1) + 4*2*h.M
}

func (h SnapshotHeader) encode() []byte {
	buf := make([]byte, snapshotHeaderSize)
	copy(buf, snapshotMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], h.Version)
	binary.LittleEndian.PutUint32(buf[12:], 0)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.N))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.M))
	binary.LittleEndian.PutUint64(buf[32:], h.Fingerprint)
	binary.LittleEndian.PutUint64(buf[40:], uint64(h.N+1))
	binary.LittleEndian.PutUint64(buf[48:], uint64(2*h.M))
	binary.LittleEndian.PutUint64(buf[56:], headerChecksum(buf))
	return buf
}

// headerChecksum hashes the header bytes before the checksum field.
func headerChecksum(buf []byte) uint64 {
	f := fnv.New64a()
	f.Write(buf[:56])
	return f.Sum64()
}

// decodeSnapshotHeader validates magic, version, checksum, and internal
// consistency of the fixed header.
func decodeSnapshotHeader(buf []byte) (SnapshotHeader, error) {
	if len(buf) < snapshotHeaderSize {
		return SnapshotHeader{}, fmt.Errorf("graph: snapshot truncated: %d bytes, header needs %d", len(buf), snapshotHeaderSize)
	}
	if [8]byte(buf[:8]) != snapshotMagic {
		return SnapshotHeader{}, errors.New("graph: not a PGB CSR snapshot (bad magic)")
	}
	h := SnapshotHeader{
		Version:     binary.LittleEndian.Uint32(buf[8:]),
		N:           int64(binary.LittleEndian.Uint64(buf[16:])),
		M:           int64(binary.LittleEndian.Uint64(buf[24:])),
		Fingerprint: binary.LittleEndian.Uint64(buf[32:]),
	}
	if h.Version != SnapshotVersion {
		return SnapshotHeader{}, fmt.Errorf("%w: snapshot is version %d, this build reads %d", ErrSnapshotVersion, h.Version, SnapshotVersion)
	}
	if got, want := binary.LittleEndian.Uint64(buf[56:]), headerChecksum(buf); got != want {
		return SnapshotHeader{}, fmt.Errorf("graph: snapshot header checksum mismatch (%016x != %016x): file corrupt", got, want)
	}
	offLen := int64(binary.LittleEndian.Uint64(buf[40:]))
	arenaLen := int64(binary.LittleEndian.Uint64(buf[48:]))
	if h.N < 0 || h.M < 0 || offLen != h.N+1 || arenaLen != 2*h.M {
		return SnapshotHeader{}, fmt.Errorf("graph: snapshot header inconsistent (n=%d m=%d offLen=%d arenaLen=%d)", h.N, h.M, offLen, arenaLen)
	}
	return h, nil
}

// WriteSnapshot writes g as a CSR snapshot. The payload is streamed
// section by section — the offset table and arena are encoded through
// one reused buffer, never duplicated in memory.
func WriteSnapshot(w io.Writer, g *Graph) error {
	if g == nil {
		return errors.New("graph: cannot snapshot a nil graph")
	}
	h := SnapshotHeader{
		Version:     SnapshotVersion,
		N:           int64(g.n),
		M:           int64(g.m),
		Fingerprint: g.Fingerprint(),
	}
	if _, err := w.Write(h.encode()); err != nil {
		return err
	}
	// 64 KiB chunks: large enough to amortise Write calls, small enough
	// to keep the encoder resident in cache.
	buf := make([]byte, 0, 1<<16)
	flush := func(force bool) error {
		if len(buf) == 0 || (!force && len(buf) < cap(buf)-8) {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, o := range g.off {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
		if err := flush(false); err != nil {
			return err
		}
	}
	if err := flush(true); err != nil {
		return err
	}
	for _, v := range g.nbr {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if err := flush(false); err != nil {
			return err
		}
	}
	return flush(true)
}

// WriteSnapshotFile writes g's snapshot atomically: the file is built
// under a temporary name in the destination directory and renamed into
// place, so a reader never observes a half-written snapshot.
func WriteSnapshotFile(path string, g *Graph) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteSnapshot(tmp, g); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSnapshot decodes a snapshot from r into freshly allocated slices
// — the portable plain-read path, independent of mmap support and host
// byte order. The decoded graph is structurally validated at the CSR
// level (monotone offsets; strictly increasing, in-range neighbor
// segments with no self entry) so a corrupt payload fails here with
// ErrSnapshotCorrupt instead of misleading or crashing a kernel.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	var hbuf [snapshotHeaderSize]byte
	if _, err := io.ReadFull(r, hbuf[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot header: %w", err)
	}
	h, err := decodeSnapshotHeader(hbuf[:])
	if err != nil {
		return nil, err
	}
	// Decode section-wise through one chunk buffer: a full-payload read
	// would transiently hold file + slices (1.6× the graph), and a
	// per-integer read would cost a syscall each on an unbuffered file.
	chunk := make([]byte, 1<<16)
	off := make([]int64, h.N+1)
	for i := 0; i < len(off); {
		want := (len(off) - i) * 8
		if want > len(chunk) {
			want = len(chunk)
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, fmt.Errorf("graph: snapshot offset table truncated: %w", err)
		}
		for b := 0; b < want; b += 8 {
			off[i] = int64(binary.LittleEndian.Uint64(chunk[b:]))
			i++
		}
	}
	nbr := make([]int32, 2*h.M)
	for i := 0; i < len(nbr); {
		want := (len(nbr) - i) * 4
		if want > len(chunk) {
			want = len(chunk)
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, fmt.Errorf("graph: snapshot neighbor arena truncated: %w", err)
		}
		for b := 0; b < want; b += 4 {
			nbr[i] = int32(binary.LittleEndian.Uint32(chunk[b:]))
			i++
		}
	}
	g := &Graph{n: int(h.N), m: int(h.M), off: off, nbr: nbr}
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadSnapshotFile is ReadSnapshot over the file at path.
func ReadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// forcePlainSnapshot disables the mmap fast path; tests set it to
// exercise the plain-read fallback through OpenSnapshot itself.
var forcePlainSnapshot = false

// noopCloser is the io.Closer of a snapshot opened through the plain
// path — the graph owns ordinary heap slices, nothing to release.
type noopCloser struct{}

func (noopCloser) Close() error { return nil }

// OpenSnapshot opens the snapshot at path, preferring a read-only mmap:
// the returned graph's offset table and arena alias the mapped region —
// no decode, no copy, pages shared between every process mapping the
// same snapshot — leaving one linear structural sweep (validateShape)
// as the whole open cost. The io.Closer releases the mapping; the graph
// must not be used after Close (stores keep their mappings open for
// their own lifetime, see SnapshotStore). When mmap is unavailable —
// unsupported platform, big-endian host, or a mapping failure — the
// plain-read path is used and Close is a no-op.
func OpenSnapshot(path string) (*Graph, io.Closer, error) {
	if !forcePlainSnapshot && mmapSupported() {
		g, closer, err := mmapSnapshot(path)
		if err == nil {
			return g, closer, nil
		}
		var hdrErr *snapshotHeaderError
		if errors.As(err, &hdrErr) {
			// Header-level rejections (bad magic, version, checksum)
			// are verdicts about the file, not the platform: the plain
			// path would reject it identically, so fail now.
			return nil, nil, hdrErr.err
		}
	}
	g, err := ReadSnapshotFile(path)
	if err != nil {
		return nil, nil, err
	}
	return g, noopCloser{}, nil
}

// snapshotHeaderError wraps header validation failures seen by the
// mmap path so OpenSnapshot can tell "this file is bad" from "mmap
// did not work here".
type snapshotHeaderError struct{ err error }

func (e *snapshotHeaderError) Error() string { return e.err.Error() }
func (e *snapshotHeaderError) Unwrap() error { return e.err }

// validateShape checks the CSR-level invariants a snapshot payload must
// satisfy before any kernel may walk it, in a linear sweep: monotone
// in-bounds offsets, and every neighbor segment strictly increasing,
// in range and free of the node itself — so a payload never hands the
// kernels a self loop or a duplicate edge. It is cheaper than Validate
// (no symmetry probe — a snapshot written by WriteSnapshot is symmetric
// by construction) while still making a corrupt or truncated payload an
// ErrSnapshotCorrupt error instead of a panic or a silently wrong count.
func (g *Graph) validateShape() error {
	if len(g.off) != g.n+1 || g.off[0] != 0 || g.off[g.n] != int64(len(g.nbr)) || int(g.off[g.n]) != 2*g.m {
		return fmt.Errorf("%w: shape inconsistent (n=%d m=%d)", ErrSnapshotCorrupt, g.n, g.m)
	}
	for u := 0; u < g.n; u++ {
		if g.off[u] > g.off[u+1] {
			return fmt.Errorf("%w: offsets decrease at node %d", ErrSnapshotCorrupt, u)
		}
	}
	n := int32(g.n)
	for u := int32(0); u < n; u++ {
		prev := int32(-1)
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if v <= prev || v >= n || v == u {
				switch {
				case v < 0 || v >= n:
					return fmt.Errorf("%w: neighbor %d out of range [0, %d)", ErrSnapshotCorrupt, v, n)
				case v == u:
					return fmt.Errorf("%w: node %d lists itself", ErrSnapshotCorrupt, u)
				}
				return fmt.Errorf("%w: neighbors of node %d not strictly increasing at %d", ErrSnapshotCorrupt, u, v)
			}
			prev = v
		}
	}
	return nil
}
