package release_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/release"
)

// TestBuiltinPool runs the golden fixture for the wire.GetBuf/PutBuf
// pair: the fixture package synthesizes the repro/internal/wire import
// path, so the path-matched seeds fire without the real module.
func TestBuiltinPool(t *testing.T) {
	linttest.Run(t, release.Analyzer, "testdata/src/repro/internal/wire")
}
