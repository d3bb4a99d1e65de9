package secretflow_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/secretflow"
)

// TestSecretFlow covers the dataflow engine end to end on a fixture:
// direct source-to-sink flows, chains through helpers, secret package
// vars, and the silent shapes (built-in sanitizer packages, declared
// //lint:sanitizes redactors, sinks fed only constants).
func TestSecretFlow(t *testing.T) {
	linttest.Run(t, secretflow.Analyzer, "testdata/src/secretpkg")
}

// TestEdgePackageExempt runs a secret-to-log flow under a cmd/ path:
// program edges are exempt, so the fixture carries no want comments
// and any diagnostic fails the test.
func TestEdgePackageExempt(t *testing.T) {
	linttest.Run(t, secretflow.Analyzer, "testdata/src/cmd/tool")
}

// TestDirectiveHygiene asserts the directive failure modes
// programmatically: both diagnostics anchor on the directive comment,
// and a want comment cannot share a //-comment's line.
func TestDirectiveHygiene(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/secretdirs")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{secretflow.Analyzer})
	if err != nil {
		t.Fatalf("run secretflow: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	for _, want := range []string{
		"misplaced //lint:secret directive: it must sit on a type, struct field, var, or func declaration",
		"lint:sanitizes directive needs a reason",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) && filepath.Base(d.Pos.Filename) == "a.go" {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in %v", want, diags)
		}
	}
}
