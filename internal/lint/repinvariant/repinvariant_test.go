package repinvariant_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/repinvariant"
)

// TestTermMonotonicity covers the ==/!= term comparison check.
func TestTermMonotonicity(t *testing.T) {
	linttest.Run(t, repinvariant.Analyzer, "testdata/src/termpkg")
}

// TestQuorumJournal covers the Journal*-reaches-waitReplicated check
// and the goroutine lifecycle rules it scopes.
func TestQuorumJournal(t *testing.T) {
	linttest.Run(t, repinvariant.Analyzer, "testdata/src/quorumpkg")
}
