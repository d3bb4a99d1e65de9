// Package secretflow enforces Authenticache's core security
// invariant as a taint property: secret-bearing state — raw error
// maps, derived map/session keys, unburned CRP pair material, WAL
// record payloads — must never reach a disclosure sink. Sinks are
// log/fmt output (including injected logger callbacks), error
// payloads (fmt.Errorf / errors.New arguments travel to clients in
// wire error frames), file writes outside internal/wal, and
// cache-entry stores (ADR-008: never persist secrets in cache
// entries).
//
// The heavy lifting happens in the lint framework's interprocedural
// dataflow engine (Pass.Dataflow): secrecy is seeded by a built-in
// list of repo types plus //lint:secret directives on type, field,
// var, and func declarations; //lint:sanitizes <reason> declares a
// function's output clean (hashing, burning, redaction); taint
// propagates through assignments, composites, ranges, and function
// calls/returns along the package call graph. A violation is reported
// at the point where the secret enters the sink path, with the full
// call chain to the sink.
//
// This analyzer also polices the directives themselves: a
// //lint:secret or //lint:sanitizes comment attached to nothing is
// reported (stale annotations must not silently rot), and
// //lint:sanitizes requires a reason, exactly like //lint:ignore.
package secretflow

import (
	"strings"

	"repro/internal/lint"
)

// Analyzer is the secretflow entry point.
var Analyzer = &lint.Analyzer{
	Name: "secretflow",
	Doc:  "secret-bearing values (error maps, keys, CRP pairs, WAL payloads) must never flow to logs, error payloads, non-WAL file writes, or cache entries",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.EdgePackage() {
		// CLIs and examples print provisioned keys as their user
		// interface (authd's PROVISION lines, demo output); the
		// invariant protects the server library and daemons' logs.
		return nil
	}
	df := pass.Dataflow()
	for _, ff := range df.All() {
		for _, f := range ff.Findings {
			if pass.InTestFile(f.Pos) {
				continue
			}
			src := f.Source
			if src == "" {
				src = "value"
			}
			msg := "secret " + src + " reaches " + f.Sink
			if len(f.Chain) > 0 {
				msg += " via " + strings.Join(f.Chain, " -> ")
			}
			pass.Reportf(f.Pos, "%s", msg)
		}
	}
	for _, d := range df.UnusedSecret {
		if pass.InTestFile(d.Pos) {
			continue
		}
		kind := "//lint:secret"
		if strings.Contains(d.Text, "lint:sanitizes") {
			kind = "//lint:sanitizes"
		}
		pass.Reportf(d.Pos, "misplaced %s directive: it must sit on a type, struct field, var, or func declaration", kind)
	}
	for _, d := range df.NoReasonSanitizes {
		if pass.InTestFile(d.Pos) {
			continue
		}
		pass.Reportf(d.Pos, "lint:sanitizes directive needs a reason: //lint:sanitizes <why the output is clean>")
	}
	return nil
}
