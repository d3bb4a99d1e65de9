// Package schema pins the code's wire and disk schemas to one source
// of truth each: the discriminator constants in the code, and the
// tables in docs/PROTOCOL.md. A record type added to the log without
// updating every consumer is silent data loss — the encoder writes
// frames the decoder rejects, or recovery drops mutations it has no
// applier for, and the no-reuse registry forgets burned pairs. An
// opcode the docs and code disagree on is a protocol fork.
//
// WAL consumers, checked against the `Type` constants of the package
// named "wal":
//
//   - Switch exhaustiveness: every switch on wal.Type (local or
//     imported) must list every Type constant. A default arm is not an
//     excuse — the encode/decode switches and the replay dispatcher
//     each need an explicit case per record type, because "handled by
//     default" is exactly how drift hides.
//   - Applier coverage: a package that dispatches on an imported
//     wal.Type and imports a package whose Server has Replay* methods
//     (the auth layer) must have an applier per record type: constant
//     TypeX requires method ReplayX. Reported once per package, at the
//     first dispatch switch.
//
// Markdown tables, pinned by two directives that share one grammar:
//
//	//lint:recordtable <relpath>[#<section>] [type=TypeName] [prefix=Prefix]
//	//lint:repfence <relpath>[#<section>]
//
// The path is relative to the directive's file; a #section fragment
// restricts the scan to one markdown section (heading slugified
// GitHub-style: lowercased, spaces to dashes). A table row is
// `| name | value | ... |` with an integer value.
//
//   - Record table (//lint:recordtable): the table must list exactly
//     the declared Prefix* constants of the named local discriminator
//     type — names mapped CamelCase→snake_case (as the String() methods
//     spell them), values as encoded on the wire or disk. type defaults
//     to Type and prefix to the type name, so the wal package's bare
//     directive keeps its meaning; the wire package pins its v2 opcode
//     table the same way.
//   - Codec symmetry: in a package whose Append* encoders open frames
//     with beginFrame, each encoder must mirror its Decode* counterpart
//     field for field, and both must match the Payload column (the
//     third cell) of the package's record table. See codec.go.
//   - Client-port fence (//lint:repfence): replication opcodes are
//     spoken only on the dedicated replication listener. No case in
//     the directive file's switches over Opcode may match a rep_* row
//     of the table, by Op constant name or by value, and each such
//     dispatch must keep a default arm so unknown opcodes are refused,
//     not ignored. See fence.go.
//
// Test files are exempt throughout.
package schema

import (
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the schema entry point.
var Analyzer = &lint.Analyzer{
	Name: "schema",
	Doc:  "wire and WAL schemas must match their one source of truth: exhaustive wal.Type switches with a Replay applier per record type, recordtable-pinned docs tables, Append*/Decode* codecs that mirror each other and the payload column, and rep_* opcodes fenced off the client port",
	Run:  run,
}

func run(pass *lint.Pass) error {
	dirs := directives(pass)
	var table *directive // the package's first record table: codec payloads
	for _, d := range dirs {
		if d.kind == recordTable && table == nil {
			table = d
		}
		switch {
		case d.err != nil:
			pass.Reportf(d.pos, "malformed %s directive: %v", d.kind, d.err)
		case d.kind == recordTable:
			checkRecordTable(pass, d)
		default:
			checkFence(pass, d)
		}
	}
	checkSwitches(pass)
	checkCodecs(pass, table)
	return nil
}

// --- Directives --------------------------------------------------------

// The two directive kinds.
const (
	recordTable = "recordtable"
	repFence    = "repfence"
)

// directive is one parsed //lint:recordtable or //lint:repfence
// comment, with the markdown table it points at read once.
type directive struct {
	kind string
	pos  token.Pos
	file *ast.File
	// err describes a directive that does not parse.
	err error
	// rel is the markdown path relative to the directive's file;
	// section scopes the scan to one slugified heading ("" = whole
	// file).
	rel, section string
	// typeName is the local discriminator type (default "Type") and
	// prefix its constant prefix (default: the type name); record
	// tables only.
	typeName, prefix string
	// rows are the table's data rows; readErr is set instead when the
	// file is unreadable or lacks the section.
	rows    []row
	readErr error
}

// where renders the directive's target for diagnostics.
func (d *directive) where() string {
	if d.section == "" {
		return d.rel
	}
	return d.rel + "#" + d.section
}

// reportUnread reports a table that could not be read.
func (d *directive) reportUnread(pass *lint.Pass) {
	if errors.Is(d.readErr, errNoSection) {
		pass.Reportf(d.pos, "%s target %s has no section #%s", d.kind, d.rel, d.section)
	} else {
		pass.Reportf(d.pos, "%s target %s is unreadable: %v", d.kind, d.rel, d.readErr)
	}
}

// directives collects the package's table pins in source order and
// reads each one's table.
func directives(pass *lint.Pass) []*directive {
	var out []*directive
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, kind := range []string{recordTable, repFence} {
					rest, ok := strings.CutPrefix(c.Text, "//lint:"+kind+" ")
					if !ok {
						continue
					}
					d := parseDirective(kind, rest)
					d.pos, d.file = c.Pos(), f
					if d.err == nil {
						dir := filepath.Dir(pass.Fset.Position(c.Pos()).Filename)
						var lines []string
						lines, d.readErr = markdownSection(filepath.Join(dir, d.rel), d.section)
						d.rows = tableRows(lines)
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// parseDirective splits `<path>[#section] [key=value...]`; only record
// tables take options.
func parseDirective(kind, rest string) *directive {
	d := &directive{kind: kind, typeName: "Type"}
	usage, options := "//lint:repfence <path>[#section]", "none"
	if kind == recordTable {
		usage, options = "//lint:recordtable <path>[#section] [type=TypeName] [prefix=Prefix]", "type= or prefix="
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		d.err = fmt.Errorf("expected %s", usage)
		return d
	}
	d.rel, d.section, _ = strings.Cut(fields[0], "#")
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		switch {
		case !ok || val == "":
			d.err = fmt.Errorf("malformed option %q: want key=value", f)
		case kind == recordTable && key == "type":
			d.typeName = val
		case kind == recordTable && key == "prefix":
			d.prefix = val
		default:
			d.err = fmt.Errorf("unknown option %q: want %s", key, options)
		}
		if d.err != nil {
			return d
		}
	}
	if d.prefix == "" {
		d.prefix = d.typeName
	}
	return d
}

// --- Markdown ----------------------------------------------------------

// errNoSection reports that a markdown file exists but lacks the
// requested #section.
var errNoSection = errors.New("section not found")

// markdownSection reads path and returns its lines, narrowed to the
// section whose heading slugifies to section (the whole file when
// section is empty): from that heading to the next heading of the
// same or higher level.
func markdownSection(path, section string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	if section == "" {
		return lines, nil
	}
	level, start := 0, -1
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		l := 0
		for l < len(trimmed) && trimmed[l] == '#' {
			l++
		}
		if start >= 0 && l <= level {
			return lines[start:i], nil
		}
		if start < 0 && slugify(trimmed[l:]) == section {
			start, level = i, l
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("%w: #%s", errNoSection, section)
	}
	return lines[start:], nil
}

// slugify maps a markdown heading onto its GitHub-style anchor:
// lowercased, spaces to dashes, everything else non-alphanumeric
// dropped.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// row is one data row of a pinned table.
type row struct {
	name  string
	value int64
	// cells are all of the row's cells, trimmed and de-backticked;
	// cells[0] is the name.
	cells []string
}

// tableRowRE matches one table row: a name cell (optionally
// backticked) followed by an integer value cell. The integer
// requirement keeps prose tables (e.g. error-code tables with text
// columns) from matching.
var tableRowRE = regexp.MustCompile("^\\|\\s*`?([a-z][a-z0-9_-]*)`?\\s*\\|\\s*(\\d+)\\s*\\|")

// tableRows extracts the `| name | value | ... |` rows from markdown
// lines, in order.
func tableRows(lines []string) []row {
	var out []row
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		m := tableRowRE.FindStringSubmatch(trimmed)
		if m == nil {
			continue
		}
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(trimmed, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
		}
		out = append(out, row{name: m[1], value: v, cells: cells})
	}
	return out
}

// snake maps a constant name, prefix trimmed, onto its wire and doc
// spelling: RemapChallenge → remap_challenge.
func snake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// --- Discriminator constants -------------------------------------------

// schemaConstants returns the prefix-named constants of the
// discriminator, ordered by encoded value.
func schemaConstants(named *types.Named, prefix string) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, prefix) || len(name) == len(prefix) {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := constant.Int64Val(out[i].Val())
		vj, _ := constant.Int64Val(out[j].Val())
		return vi < vj
	})
	return out
}

// exprObject resolves a (selector) expression to its object.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// --- Record tables -----------------------------------------------------

// checkRecordTable diffs one record table against the local
// discriminator constants it names and reports all drift in a single
// diagnostic at the directive.
func checkRecordTable(pass *lint.Pass, d *directive) {
	consts, err := directiveConstants(pass, d)
	if err != nil {
		pass.Reportf(d.pos, "recordtable directive: %v", err)
		return
	}
	if d.readErr != nil {
		d.reportUnread(pass)
		return
	}
	// A repeated name keeps its first position and its last value.
	values := make(map[string]int64, len(d.rows))
	var order []string
	for _, r := range d.rows {
		if _, dup := values[r.name]; !dup {
			order = append(order, r.name)
		}
		values[r.name] = r.value
	}
	var drift []string
	seen := make(map[string]bool)
	for _, c := range consts {
		name := snake(strings.TrimPrefix(c.Name(), d.prefix))
		seen[name] = true
		val, _ := constant.Int64Val(c.Val())
		got, ok := values[name]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("no row for %s (%s = %d)", name, c.Name(), val))
		case got != val:
			drift = append(drift, fmt.Sprintf("%s listed as %d but %s encodes as %d", name, got, c.Name(), val))
		}
	}
	for _, name := range order {
		if !seen[name] {
			drift = append(drift, fmt.Sprintf("unknown record name %s (no %s constant)", name, d.typeName))
		}
	}
	if len(drift) > 0 {
		pass.Reportf(d.pos, "record table %s drifts from the %s schema: %s",
			d.where(), pass.Pkg.Name()+"."+d.typeName, strings.Join(drift, "; "))
	}
}

// directiveConstants resolves the directive's discriminator type in
// the package scope and returns its prefix-named constants.
func directiveConstants(pass *lint.Pass, d *directive) ([]*types.Const, error) {
	tn, ok := pass.Pkg.Scope().Lookup(d.typeName).(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("package %s declares no type %s", pass.Pkg.Name(), d.typeName)
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("%s.%s is not a defined type", pass.Pkg.Name(), d.typeName)
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil, fmt.Errorf("%s.%s is not an integer discriminator", pass.Pkg.Name(), d.typeName)
	}
	consts := schemaConstants(named, d.prefix)
	if len(consts) == 0 {
		return nil, fmt.Errorf("%s.%s has no %s* constants to pin", pass.Pkg.Name(), d.typeName, d.prefix)
	}
	return consts, nil
}

// --- WAL consumers -----------------------------------------------------

// walType reports whether t is the schema discriminator: a named
// integer type called Type declared in a package named wal.
func walType(t types.Type) (*types.Named, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Name() != "Type" || obj.Pkg() == nil || obj.Pkg().Name() != "wal" {
		return nil, false
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil, false
	}
	return named, true
}

// checkSwitches enforces exhaustiveness on every switch over wal.Type
// and, for packages dispatching on an imported discriminator, applier
// coverage on the imported Server.
func checkSwitches(pass *lint.Pass) {
	info := pass.TypesInfo
	appliersChecked := false
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok {
				return true
			}
			named, ok := walType(tv.Type)
			if !ok {
				return true
			}
			consts := schemaConstants(named, "Type")
			if len(consts) == 0 {
				return true
			}
			covered := make(map[string]bool)
			for _, clause := range sw.Body.List {
				cc, isCC := clause.(*ast.CaseClause)
				if !isCC {
					continue
				}
				for _, e := range cc.List {
					if obj := exprObject(info, e); obj != nil {
						covered[obj.Name()] = true
					}
				}
			}
			var missing []string
			for _, c := range consts {
				if !covered[c.Name()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(),
					"switch on wal.Type misses %s: every record type needs an explicit case (schema drift)",
					strings.Join(missing, ", "))
			}
			// Applier coverage: only where the discriminator is imported
			// (the dispatch side), once per package.
			if !appliersChecked && named.Obj().Pkg() != pass.Pkg {
				appliersChecked = true
				checkAppliers(pass, sw, consts)
			}
			return true
		})
	}
}

// checkAppliers requires a ReplayX method per TypeX constant on an
// imported Server type that does replay (has at least one Replay*
// method).
func checkAppliers(pass *lint.Pass, sw *ast.SwitchStmt, consts []*types.Const) {
	for _, imp := range pass.Pkg.Imports() {
		obj, ok := imp.Scope().Lookup("Server").(*types.TypeName)
		if !ok {
			continue
		}
		srv := obj.Type()
		if !hasReplayMethod(srv) {
			continue
		}
		for _, c := range consts {
			want := "Replay" + strings.TrimPrefix(c.Name(), "Type")
			m, _, _ := types.LookupFieldOrMethod(types.NewPointer(srv), true, imp, want)
			if _, isFunc := m.(*types.Func); !isFunc {
				pass.Reportf(sw.Pos(),
					"record type %s has no applier: expected method %s on %s.Server (recovery would drop these records)",
					c.Name(), want, imp.Name())
			}
		}
	}
}

// hasReplayMethod reports whether the type declares any Replay*
// method — the marker that it is the replay target.
func hasReplayMethod(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if strings.HasPrefix(named.Method(i).Name(), "Replay") {
			return true
		}
	}
	return false
}
