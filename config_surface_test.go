package authenticache_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// configStructs are the structs whose exported fields make up the
// configuration surface DESIGN.md §13 accounts for, keyed the way the
// section's table names them.
var configStructs = []struct{ name, dir, typ string }{
	{"wal.Options", "internal/wal", "Options"},
	{"auth.Config", "internal/auth", "Config"},
	{"auth.RetryPolicy", "internal/auth", "RetryPolicy"},
	{"auth.DeadlineBudget", "internal/auth", "DeadlineBudget"},
	{"auth.WireConfig", "internal/auth", "WireConfig"},
	{"cluster.RouterConfig", "internal/cluster", "RouterConfig"},
	{"cluster.Config", "internal/cluster", "Config"},
}

// TestDesignConfigSurface pins DESIGN.md §13 to the code: every
// exported field of the config structs has a row in the section's
// table, every row names a field that exists, and the section states
// the true field count. A new setting cannot land without naming who
// sets it.
func TestDesignConfigSurface(t *testing.T) {
	fields := map[string]bool{} // "auth.Config.ChallengeBits"
	for _, cs := range configStructs {
		names := exportedFields(t, cs.dir, cs.typ)
		if len(names) == 0 {
			t.Fatalf("%s: no exported fields found in %s", cs.name, cs.dir)
		}
		for _, f := range names {
			fields[cs.name+"."+f] = true
		}
	}

	section := designSection(t, "## 13. ")
	rowed := map[string]bool{}
	code := regexp.MustCompile("`([^`]+)`")
	qualified := regexp.MustCompile(`^(\w+\.\w+)\.\w+$`)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		names := code.FindAllStringSubmatch(cell, -1)
		m := qualified.FindStringSubmatch(names[0][1])
		if m == nil {
			continue // not a struct field (authd's flags)
		}
		for i, n := range names {
			field := n[1]
			if i > 0 {
				field = m[1] + "." + n[1]
			}
			if !fields[field] {
				t.Errorf("DESIGN.md §13 has a row for %s, which is not an exported field of a config struct", field)
			}
			rowed[field] = true
		}
	}
	for f := range fields {
		if !rowed[f] {
			t.Errorf("%s has no row in DESIGN.md §13: name who sets it", f)
		}
	}

	m := regexp.MustCompile(`(\d+) settable fields`).FindStringSubmatch(section)
	if m == nil {
		t.Fatal("DESIGN.md §13 does not state the settable field count")
	}
	if n, _ := strconv.Atoi(m[1]); n != len(fields) {
		t.Errorf("DESIGN.md §13 states %d settable fields; the config structs hold %d", n, len(fields))
	}
}

// exportedFields parses the package in dir (test files excluded) and
// returns the exported field names of struct typ.
func exportedFields(t *testing.T, dir, typ string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != typ {
					continue
				}
				var out []string
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							out = append(out, n.Name)
						}
					}
				}
				return out
			}
		}
	}
	t.Fatalf("type %s struct not found in %s", typ, dir)
	return nil
}

// designSection returns DESIGN.md's section whose heading starts with
// prefix, up to the next second-level heading.
func designSection(t *testing.T, prefix string) string {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	i := strings.Index(s, "\n"+prefix)
	if i < 0 {
		t.Fatalf("DESIGN.md has no section %q", prefix)
	}
	s = s[i+1:]
	if j := strings.Index(s[1:], "\n## "); j >= 0 {
		s = s[:j+1]
	}
	return s
}
