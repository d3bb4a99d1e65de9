package locks_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/locks"
)

// TestLockcheck covers the guard conventions and the journal
// critical-section rule.
func TestLockcheck(t *testing.T) {
	linttest.Run(t, locks.Analyzer, "testdata/src/lockpkg")
}

// TestLockorder covers inversions and re-entry, direct and through
// the call graph, under a //lint:lockorder extension.
func TestLockorder(t *testing.T) {
	linttest.Run(t, locks.Analyzer, "testdata/src/orderpkg")
}

// TestBuiltinHierarchy covers the default hierarchy and the journal
// and WAL methods pinned at the package boundary.
func TestBuiltinHierarchy(t *testing.T) {
	linttest.Run(t, locks.Analyzer, "testdata/src/walpkg")
}
