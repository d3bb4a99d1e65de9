// Package analyzers is the single registry of authlint's analyzers.
// Both driver modes (the standalone loader and the go vet -vettool
// unitchecker) take the suite from All, so an analyzer registered
// here is wired everywhere — and TestRegistryExhaustive fails the
// build of any analyzer package that exists on disk but is missing
// from this list.
package analyzers

import (
	"repro/internal/lint"
	"repro/internal/lint/atomicwrite"
	"repro/internal/lint/errtaxonomy"
	"repro/internal/lint/locks"
	"repro/internal/lint/release"
	"repro/internal/lint/repinvariant"
	"repro/internal/lint/schema"
	"repro/internal/lint/secretflow"
)

// All returns every registered analyzer, ordered by name. Callers may
// reslice but must not mutate the entries.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		atomicwrite.Analyzer,
		errtaxonomy.Analyzer,
		locks.Analyzer,
		release.Analyzer,
		repinvariant.Analyzer,
		schema.Analyzer,
		secretflow.Analyzer,
	}
}
