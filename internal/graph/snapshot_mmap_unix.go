//go:build unix

package graph

// The mmap source of OpenSnapshot (DESIGN.md §13): the snapshot's
// payload sections are 8-byte aligned in the file and the mapping is
// page aligned, so on a little-endian host viewSnapshot can alias the
// mapped bytes directly — opening a snapshot costs one mmap regardless
// of graph size, and the pages are demand-loaded and shared across
// processes. The mapping is read-only; writing through a Graph view of
// it would fault, which enforces the package's "immutable by
// convention" rule at the hardware level.

import (
	"errors"
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

// mapFile maps the file at path read-only and returns its bytes and
// the closer that unmaps them. It declines big-endian hosts, whose
// integers the wire order would misread.
func mapFile(path string) ([]byte, io.Closer, error) {
	if !hostLittleEndian {
		return nil, nil, errors.New("graph: mmap needs a little-endian host")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	return data, &mmapMapping{data: data}, nil
}
