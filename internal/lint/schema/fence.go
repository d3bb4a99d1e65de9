package schema

// The client-port fence: a //lint:repfence directive pins a
// client-facing dispatch file against the PROTOCOL.md opcode table.
// The table's rep_* rows are the replication opcodes, which only the
// dedicated replication listener may speak: no case in the file's
// switches over Opcode may accept one, and every such dispatch must
// keep a default arm so unknown opcodes are refused, not ignored.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// The dispatch type, its constant prefix, and the table-row prefix of
// the opcodes fenced off the client port.
const (
	fenceType   = "Opcode"
	fencePrefix = "Op"
	fencedRows  = "rep_"
)

// checkFence applies one //lint:repfence directive to its file.
func checkFence(pass *lint.Pass, d *directive) {
	if d.readErr != nil {
		d.reportUnread(pass)
		return
	}
	var fenced []row
	for _, r := range d.rows {
		if strings.HasPrefix(r.name, fencedRows) {
			fenced = append(fenced, r)
		}
	}
	if len(fenced) == 0 {
		pass.Reportf(d.pos, "repfence target %s lists no %s* rows: nothing to fence", d.rel, fencedRows)
		return
	}

	found := false
	ast.Inspect(d.file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sw.Tag]
		if !ok {
			return true
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == fenceType {
			found = true
			fenceSwitch(pass, sw, named, fenced)
		}
		return true
	})
	if !found {
		pass.Reportf(d.pos, "repfence directive fences nothing: no switch over %s in this file", fenceType)
	}
}

// fenceSwitch checks one dispatch switch against the fenced rows. A
// case matches a row by its Op constant's name or by value.
func fenceSwitch(pass *lint.Pass, sw *ast.SwitchStmt, opcode *types.Named, fenced []row) {
	// The dispatch type's constant for each row, to name the opcode a
	// case accepts by value.
	spelled := make(map[string]string)
	for _, c := range schemaConstants(opcode, fencePrefix) {
		spelled[snake(strings.TrimPrefix(c.Name(), fencePrefix))] = c.Name()
	}
	hasDefault := false
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			name := ""
			if obj := exprObject(pass.TypesInfo, e); obj != nil {
				name = obj.Name()
			}
			val := pass.TypesInfo.Types[e].Value
			for _, r := range fenced {
				rest, isOp := strings.CutPrefix(name, fencePrefix)
				byName := isOp && snake(rest) == r.name
				byValue := val != nil && constant.Compare(val, token.EQL, constant.MakeInt64(r.value))
				if !byName && !byValue {
					continue
				}
				opName := name
				if !byName {
					opName = spelled[r.name]
				}
				if opName == "" {
					opName = types.ExprString(e)
				}
				pass.Reportf(e.Pos(),
					"client port accepts replication opcode %s (%s = %d): PROTOCOL.md confines %s* opcodes to the replication listener; reject them with the default arm",
					r.name, opName, r.value, fencedRows)
			}
		}
	}
	if !hasDefault {
		pass.Reportf(sw.Pos(),
			"client-port dispatch on %s has no default arm: unknown and replication opcodes must be rejected, not ignored",
			fenceType)
	}
}
