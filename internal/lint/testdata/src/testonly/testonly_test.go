package fixture

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 {
		t.Fatal("OnlyTests")
	}
}

// putter is declared by a test, so mem.Put is not in use through it.
type putter interface{ Put(n int) }

func TestPut(t *testing.T) {
	var p putter = &mem{}
	p.Put(1)
}
