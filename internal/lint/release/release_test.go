package release_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/release"
)

// TestBuiltinPool runs the golden fixture for the wire.GetBuf/PutBuf
// pair: the fixture package synthesizes the repro/internal/wire import
// path, so the path-matched seeds fire without the real module.
func TestBuiltinPool(t *testing.T) {
	linttest.Run(t, release.Analyzer, "testdata/src/repro/internal/wire")
}

// TestResleak runs the golden fixture: std acquisitions, the Accept
// shape, and ownership transfer in both directions.
func TestResleak(t *testing.T) {
	linttest.Run(t, release.Analyzer, "testdata/src/resfix")
}

// TestEdgePackagesExempt asserts the cmd/examples exemption: the same
// leak shape under a cmd/ path produces nothing.
func TestEdgePackagesExempt(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/cmd/leaky")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{release.Analyzer})
	if err != nil {
		t.Fatalf("run release: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("cmd/ package should be exempt, got %v", diags)
	}
}
