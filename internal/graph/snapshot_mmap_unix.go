//go:build unix

package graph

// The mmap fast path of OpenSnapshot (DESIGN.md §13): the snapshot's
// payload sections are 8-byte aligned in the file and the mapping is
// page aligned, so on a little-endian host the offset table and arena
// can alias the mapped bytes directly — opening a snapshot costs one
// mmap regardless of graph size, and the pages are demand-loaded and
// shared across processes. The mapping is read-only; writing through a
// Graph view of it would fault, which enforces the package's
// "immutable by convention" rule at the hardware level.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"syscall"
	"unsafe"
)

// hostLittleEndian reports whether the running host stores integers
// little-endian — the precondition for aliasing the fixed wire order.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func mmapSupported() bool { return hostLittleEndian }

// mmapMapping tracks one live mapping; Close releases it. The Graph
// aliasing the mapping must not be used after Close.
type mmapMapping struct{ data []byte }

func (m *mmapMapping) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}

func mmapSnapshot(path string) (*Graph, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < snapshotHeaderSize {
		return nil, nil, &snapshotHeaderError{err: fmt.Errorf("graph: snapshot truncated: %d bytes, header needs %d", size, snapshotHeaderSize)}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	m := &mmapMapping{data: data}
	h, err := decodeSnapshotHeader(data)
	if err != nil {
		_ = m.Close()
		return nil, nil, &snapshotHeaderError{err: err}
	}
	if want := snapshotHeaderSize + h.payloadSize(); size < want {
		_ = m.Close()
		return nil, nil, &snapshotHeaderError{err: fmt.Errorf("graph: snapshot truncated: %d bytes, payload needs %d", size, want)}
	}
	offBytes := data[snapshotHeaderSize : snapshotHeaderSize+8*(h.N+1)]
	nbrBytes := data[snapshotHeaderSize+8*(h.N+1) : snapshotHeaderSize+h.payloadSize()]
	g := &Graph{
		n:   int(h.N),
		m:   int(h.M),
		off: aliasInt64(offBytes),
		nbr: aliasInt32(nbrBytes),
	}
	if err := g.checkPayload(h); err != nil {
		_ = m.Close()
		return nil, nil, &snapshotHeaderError{err: err}
	}
	return g, m, nil
}

// aliasInt64 reinterprets b (8-byte aligned, little-endian host) as
// []int64 without copying.
func aliasInt64(b []byte) []int64 {
	if len(b) == 0 {
		return []int64{}
	}
	_ = binary.LittleEndian // wire order; aliasing is valid per hostLittleEndian
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// aliasInt32 reinterprets b (4-byte aligned, little-endian host) as
// []int32 without copying.
func aliasInt32(b []byte) []int32 {
	if len(b) == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
