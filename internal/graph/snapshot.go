package graph

// snapshot.go is the on-disk form of the CSR core (DESIGN.md §13): a
// versioned binary file holding exactly the in-memory layout of §8 —
// one offset table plus one neighbor arena — so a graph can be served
// from disk without re-materialising it. The file is little-endian and
// every section starts 8-byte aligned, so one decoder (viewSnapshot)
// aliases a byte view of the file directly as the graph's
// []int64/[]int32 slices. OpenSnapshot views a read-only mapping on
// little-endian hosts; ReadSnapshotFile, the portable path and the
// fallback everywhere else, views an aligned in-memory copy rewritten
// to host order.
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
	"math"
	"os"
	"path/filepath"
	"unsafe"
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

// ErrSnapshotCorrupt marks a snapshot that is not one this build can
// trust: a bad magic number or header checksum, an inconsistent
// header, a file shorter than the payload its header describes, a
// payload that fails Validate, or edges that do not hash to the
// fingerprint in the header. Every rejection of a snapshot's bytes is
// either this or ErrSnapshotVersion.
var ErrSnapshotCorrupt = errors.New("graph: corrupt snapshot")

// SnapshotHeader is the decoded fixed header of a snapshot file: the
// graph's shape and fingerprint, readable without loading the payload.
type SnapshotHeader struct {
	Version     uint32
	N           int64  // node count
	M           int64  // edge count
	Fingerprint uint64 // Graph.Fingerprint() of the payload
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
		return SnapshotHeader{}, fmt.Errorf("%w: truncated: %d bytes, header needs %d", ErrSnapshotCorrupt, len(buf), snapshotHeaderSize)
	}
	if [8]byte(buf[:8]) != snapshotMagic {
		return SnapshotHeader{}, fmt.Errorf("%w: not a PGB CSR snapshot (bad magic)", ErrSnapshotCorrupt)
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
		return SnapshotHeader{}, fmt.Errorf("%w: header checksum mismatch (%016x != %016x)", ErrSnapshotCorrupt, got, want)
	}
	offLen := int64(binary.LittleEndian.Uint64(buf[40:]))
	arenaLen := int64(binary.LittleEndian.Uint64(buf[48:]))
	// Node ids are int32 and the graph is simple, which keeps n+1 and
	// 2m of any accepted header from overflowing int64.
	if h.N < 0 || h.N > math.MaxInt32 || h.M < 0 || h.M > h.N*(h.N-1)/2 || offLen != h.N+1 || arenaLen != 2*h.M {
		return SnapshotHeader{}, fmt.Errorf("%w: header inconsistent (n=%d m=%d offLen=%d arenaLen=%d)", ErrSnapshotCorrupt, h.N, h.M, offLen, arenaLen)
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

// ReadSnapshotFile reads the snapshot at path into memory — the
// portable path, independent of mmap support and host byte order. The
// file is read whole into one buffer of exactly its size, backed by
// []uint64 so it is 8-byte aligned, which viewSnapshot rewrites from
// the wire order to host order in place and aliases as the graph. A
// header that claims more payload than the file holds therefore costs
// nothing beyond the file itself.
func ReadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	words := make([]uint64, (st.Size()+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot %s: %w", path, err)
	}
	return viewSnapshot(data, true)
}

// OpenSnapshot opens the snapshot at path, preferring a read-only mmap:
// the returned graph's offset table and arena alias the mapped region —
// no decode, no copy, pages shared between every process mapping the
// same snapshot — leaving the linear payload verification
// (checkPayload) as the whole open cost. The io.Closer releases the
// mapping; the graph must not be used after Close (stores keep their
// mappings open for their own lifetime, see SnapshotStore). When the
// file cannot be mapped — unsupported platform, big-endian host, or a
// mapping failure — it is read by ReadSnapshotFile and Close is a
// no-op. Both sources go through viewSnapshot, so a file is accepted
// or rejected identically on either path.
func OpenSnapshot(path string) (*Graph, io.Closer, error) {
	data, mapping, err := mapFile(path)
	if err != nil {
		g, err := ReadSnapshotFile(path)
		if err != nil {
			return nil, nil, err
		}
		return g, io.NopCloser(nil), nil
	}
	g, err := viewSnapshot(data, false)
	if err != nil {
		_ = mapping.Close()
		return nil, nil, err
	}
	return g, mapping, nil
}

// viewSnapshot is the one snapshot decoder. It decodes the header,
// checks that data holds the payload the header describes, aliases the
// offset table and arena in place and verifies them (checkPayload).
// data must be 8-byte aligned. With toHost false its integers must
// already be in host order (a mapping on a little-endian host); with
// toHost true they are first rewritten from the little-endian wire
// order to host order in place — the identity on little-endian hosts,
// run anyway so that every host takes the same code.
func viewSnapshot(data []byte, toHost bool) (*Graph, error) {
	h, err := decodeSnapshotHeader(data)
	if err != nil {
		return nil, err
	}
	// 8(n+1) is at most 2^34, but 8m may overflow int64: compare in
	// arena words instead of bytes.
	offEnd := snapshotHeaderSize + 8*(h.N+1)
	if rest := int64(len(data)) - offEnd; rest < 0 || rest/8 < h.M {
		return nil, fmt.Errorf("%w: truncated: %d bytes, payload needs %d offsets and %d arena entries", ErrSnapshotCorrupt, len(data), h.N+1, 2*h.M)
	}
	off := aliasInt64(data[snapshotHeaderSize:offEnd])
	nbr := aliasInt32(data[offEnd : offEnd+8*h.M])
	if toHost {
		// Each element's own bytes, read in the wire's byte order.
		for i := range off {
			off[i] = int64(binary.LittleEndian.Uint64((*[8]byte)(unsafe.Pointer(&off[i]))[:]))
		}
		for i := range nbr {
			nbr[i] = int32(binary.LittleEndian.Uint32((*[4]byte)(unsafe.Pointer(&nbr[i]))[:]))
		}
	}
	g := &Graph{n: int(h.N), m: int(h.M), off: off, nbr: nbr}
	if err := g.checkPayload(h); err != nil {
		return nil, err
	}
	return g, nil
}

// aliasInt64 reinterprets b (8-byte aligned) as []int64 without
// copying.
func aliasInt64(b []byte) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// aliasInt32 reinterprets b (4-byte aligned) as []int32 without
// copying.
func aliasInt32(b []byte) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// checkPayload verifies a viewed payload against header h: Validate's
// shape sweep and symmetric fingerprint walk, whose result must equal
// the header's fingerprint, which pins the edge set the writer hashed.
// No payload, however crafted, reaches a kernel as anything but the
// graph that was written. On success the graph's fingerprint memo
// holds h.Fingerprint, so the caller's next Fingerprint call costs
// nothing.
func (g *Graph) checkPayload(h SnapshotHeader) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	if fp := g.Fingerprint(); fp != h.Fingerprint {
		return fmt.Errorf("%w: payload fingerprint %016x, header records %016x", ErrSnapshotCorrupt, fp, h.Fingerprint)
	}
	return nil
}
