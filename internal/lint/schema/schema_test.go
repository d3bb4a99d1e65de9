package schema_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/schema"
)

func TestWaldrift(t *testing.T) {
	linttest.Run(t, schema.Analyzer, "testdata/src/walfix")
}

// TestRecordTableDrift asserts the combined drift diagnostic
// programmatically: the report anchors on the directive comment, and
// a want comment cannot share a //-comment's line.
func TestRecordTableDrift(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/waldrifted")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{schema.Analyzer})
	if err != nil {
		t.Fatalf("run schema: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if filepath.Base(d.Pos.Filename) != "a.go" {
		t.Errorf("diagnostic anchored at %s, want a.go", d.Pos.Filename)
	}
	for _, frag := range []string{
		"record table stale.md drifts from the wal.Type schema",
		"no row for gamma (TypeGamma = 3)",
		"beta listed as 9 but TypeBeta encodes as 2",
		"unknown record name delta (no Type constant)",
	} {
		if !strings.Contains(d.Message, frag) {
			t.Errorf("diagnostic %q missing fragment %q", d.Message, frag)
		}
	}
}

// TestOpcodeTable exercises the generalized directive on the silent
// fixture: explicit type= and prefix= options, snake_case name
// mapping, and a #section fragment that must skip the decoy table in
// the neighbouring section.
func TestOpcodeTable(t *testing.T) {
	linttest.Run(t, schema.Analyzer, "testdata/src/opfix")
}

// TestOpcodeTableDrift asserts the generalized failure modes: a
// missing section, a scoped table whose rows drifted from the
// camel-cased constants, and a directive naming an undeclared type.
func TestOpcodeTableDrift(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/opdrifted")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{schema.Analyzer})
	if err != nil {
		t.Fatalf("run schema: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for _, want := range []string{
		"recordtable target proto.md has no section #no-such-section",
		"record table proto.md#opcode-table drifts from the proto.Opcode schema: no row for remap_challenge (OpRemapChallenge = 2); unknown record name remapchallenge (no Opcode constant)",
		"package proto declares no type Missing",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in %v", want, diags)
		}
	}
}

// TestImportedSchema drives the module fixture through the real
// loader: the discriminator and the Server live in different
// packages, so both the imported-switch exhaustiveness check and the
// applier cross-check must resolve through package imports.
func TestImportedSchema(t *testing.T) {
	pkgs, err := lint.Load("testdata/module", "./...")
	if err != nil {
		t.Fatalf("load module fixture: %v", err)
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture does not type-check: %v", terr)
		}
		ds, err := lint.RunPackage(pkg, []*lint.Analyzer{schema.Analyzer})
		if err != nil {
			t.Fatalf("run schema on %s: %v", pkg.PkgPath, err)
		}
		diags = append(diags, ds...)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	for _, want := range []string{
		"record type TypeGamma has no applier: expected method ReplayGamma on srv.Server",
		"switch on wal.Type misses TypeBeta, TypeGamma",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) && filepath.Base(d.Pos.Filename) == "consumer.go" {
				found = true
			}
		}
		if !found {
			t.Errorf("no consumer.go diagnostic matching %q in %v", want, diags)
		}
	}
}

// TestCodecSym runs the golden fixture: pairing, symmetry, and table
// drift, with clean u32/rep-group round-trips interleaved.
func TestCodecSym(t *testing.T) {
	linttest.Run(t, schema.Analyzer, "testdata/src/codecfix")
}

// TestNonCodecPackageSilent asserts the activation gate: a package
// with Append* helpers but no beginFrame is not a codec package and
// produces nothing.
func TestNonCodecPackageSilent(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/plainpkg")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{schema.Analyzer})
	if err != nil {
		t.Fatalf("run schema: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("non-codec package should be silent, got %v", diags)
	}
}

// TestRepFence covers the client-port fence against a local opcode
// table: constant-name match, value match, and the default-arm
// requirement.
func TestRepFence(t *testing.T) {
	linttest.Run(t, schema.Analyzer, "testdata/src/fencepkg")
}

// TestFenceDirectiveErrors asserts the directive failure modes
// programmatically: all three anchor on the directive comment, and a
// want comment cannot share a //-comment's line.
func TestFenceDirectiveErrors(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/fencebad")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{schema.Analyzer})
	if err != nil {
		t.Fatalf("run schema: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for _, want := range []string{
		"repfence target missing.md is unreadable",
		"repfence target table.md has no section #no-such-section",
		"repfence directive fences nothing: no switch over Opcode in this file",
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
