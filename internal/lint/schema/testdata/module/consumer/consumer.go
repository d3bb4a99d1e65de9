// Package consumer (module fixture) dispatches imported wal.Type
// records onto srv.Server — the durable-open replay path. The
// dispatch switch lists every record type (exhaustive), but the
// gamma applier is missing, so recovery would drop gamma records.
package consumer

import (
	"fmt"

	"waldriftfix/srv"
	"waldriftfix/wal"
)

// Apply dispatches one record. All three cases are present; the
// applier check still fires here because srv.Server has no
// ReplayGamma.
func Apply(s *srv.Server, t wal.Type, id string) error {
	switch t {
	case wal.TypeAlpha:
		return s.ReplayAlpha(id)
	case wal.TypeBeta:
		return s.ReplayBeta(id)
	case wal.TypeGamma:
		return fmt.Errorf("unhandled")
	}
	return fmt.Errorf("unknown record type %d", t)
}

// Partial forgot the beta and gamma cases: exhaustiveness drift on an
// imported discriminator.
func Partial(t wal.Type) bool {
	switch t {
	case wal.TypeAlpha:
		return true
	}
	return false
}
