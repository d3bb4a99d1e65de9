package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/errtaxonomy"
	"repro/internal/lint/locks"
	"repro/internal/lint/release"
)

// TestUnusedIgnoreReported loads the ignore-lifecycle fixture and
// runs the analyzer both directives name: the used directive
// suppresses its finding silently, the stale one is reported as
// unused at the directive's own line.
func TestUnusedIgnoreReported(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/auth")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{errtaxonomy.Analyzer})
	if err != nil {
		t.Fatalf("run errtaxonomy: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the unused-ignore report: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" {
		t.Errorf("unused-ignore diagnostic attributed to %q, want the lint framework itself", d.Analyzer)
	}
	if !strings.Contains(d.Message, "unused lint:ignore directive: errtaxonomy") {
		t.Errorf("diagnostic %q does not name the stale directive", d.Message)
	}
	if d.Pos.Line != 17 {
		t.Errorf("diagnostic anchored at line %d, want the stale directive's line 17", d.Pos.Line)
	}
}

// TestUnusedIgnoreGatedOnRanAnalyzers runs an analyzer the fixture's
// directives do not name: directives for analyzers that did not run
// this pass must not be flagged (a single-analyzer run would
// otherwise false-flag every other analyzer's exceptions).
func TestUnusedIgnoreGatedOnRanAnalyzers(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/auth")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{locks.Analyzer})
	if err != nil {
		t.Fatalf("run locks: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("locks-only run flagged directives for analyzers that never ran: %v", diags)
	}
}

// TestUnusedIgnoreFlowAnalyzers runs the lifecycle against release:
// the directive over a real leak suppresses it silently, the one over
// a clean release is reported as stale, and the locks directive stays
// untouched because locks did not run.
func TestUnusedIgnoreFlowAnalyzers(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/repro/internal/wire")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{release.Analyzer})
	if err != nil {
		t.Fatalf("run release: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale release directive: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "unused lint:ignore directive: release") {
		t.Errorf("want the stale release directive reported by the framework, got %v", d)
	}
}

// TestUnusedIgnoreFlowAnalyzersGate adds locks to the run: now the
// stale locks directive is judged too, while the used release
// suppression still holds.
func TestUnusedIgnoreFlowAnalyzersGate(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/repro/internal/wire")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{release.Analyzer, locks.Analyzer})
	if err != nil {
		t.Fatalf("run release+locks: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want the two stale directives: %v", len(diags), diags)
	}
	for _, want := range []string{
		"unused lint:ignore directive: release",
		"unused lint:ignore directive: locks",
	} {
		found := false
		for _, d := range diags {
			if d.Analyzer == "lint" && strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no framework diagnostic matching %q in %v", want, diags)
		}
	}
}
