// Package poolix exercises the //lint:ignore lifecycle against the
// flow-sensitive release analyzer: a used suppression of a real leak,
// a stale release directive over clean code, and a locks directive
// that only a locks run may judge.
package poolix

import (
	"os"
	"time"
)

// Suppressed drops the file on the fast path; the directive excuses
// it with a reason, so the finding is swallowed silently.
func Suppressed(fast bool) error {
	//lint:ignore release fixture exercises a sanctioned fast-path drop
	f, err := os.Open("poolix.go")
	if err != nil {
		return err
	}
	if fast {
		return nil
	}
	return f.Close()
}

// Clean owes nothing, which makes its directive stale armor: the
// framework must report the directive itself.
func Clean() {
	//lint:ignore release nothing is reported here, the directive is stale
	t := time.NewTicker(time.Second)
	defer t.Stop()
}

// Stale locks directive: only a run that includes locks may flag it —
// a release-only pass cannot judge it.
func Quiet() {
	//lint:ignore locks stale directive for an analyzer that may not have run
	x := 1
	_ = x
}
