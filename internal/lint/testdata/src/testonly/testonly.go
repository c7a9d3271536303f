// Package fixture exercises the testonly analyzer (DESIGN.md §14.8).
package fixture

import "fmt"

// Flagged: only testonly_test.go calls it, and a test is not a use.
func OnlyTests() int { return 1 } // want `OnlyTests is exported but no non-test file uses it`

// Allowed: a use in the declaring file counts.
const Limit = 3

// Opener's method is called below, so it is in use.
type Opener interface{ Open() error }

type mem struct{ n int }

// Allowed: Open implements Opener, and String implements fmt.Stringer,
// an interface of a direct import.
func (m *mem) Open() error    { return fmt.Errorf("limit %d", Limit) }
func (m *mem) String() string { return fmt.Sprint(m.n) }

// Allowed with justification: surface for callers outside the module.
//
//pgb:export how callers outside the module fill the store
func (m *mem) Put(n int) { m.n = n }

var _ = Opener(&mem{}).Open()
