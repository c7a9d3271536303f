//go:build !unix

package graph

// Non-unix fallback: no mmap — OpenSnapshot always reads the file with
// ReadSnapshotFile. Kept as a stub so the platform split stays in the
// build tags, not in runtime conditionals.

import (
	"errors"
	"io"
)

func mapFile(string) ([]byte, io.Closer, error) {
	return nil, nil, errors.New("graph: mmap unsupported on this platform")
}
