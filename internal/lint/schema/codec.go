package schema

// Codec symmetry pins the v2 framing's encoder/decoder pairs
// statically: for every opcode, the `Append*`-style encoder (a
// function that opens a frame with beginFrame and appends fields to
// the growing dst slice) is paired by name with its decode-in-place
// counterpart (`Decode*` over a payload slice), and the two field
// sequences — widths, order, repetition, optionality — must agree
// with each other and with the Payload column of the package's
// `//lint:recordtable`-pinned opcode table. An encoder/decoder drift
// is a lint finding, not a fuzz crash.
//
// Field sequences are extracted syntactically from the canonical
// codec idioms:
//
//   - encoder events: `dst = binary.BigEndian.AppendUintN(dst, x)`
//     (uN), `dst = append(dst, b)` (u8 per single byte), `dst =
//     append(dst, xs...)` (bytes); a for/range loop around events is
//     a repetition group, an if around events an optional group
//   - decoder events: `binary.BigEndian.UintN(p...)` (uN), `p[i]`
//     index reads (u8; consecutive reads of the same byte collapse —
//     flag decoding reads p[0] several times), payload slices flowing
//     into string/copy/composite/return (bytes); guard ifs with no
//     events are skipped, reslices `p = p[k:]` are bookkeeping
//
// The grammar in the table's Payload cells: `-` (empty), atoms
// u8/u16/u32/u64/bytes, `n*(...)` repetition, `[...]` optional.
//
// An encoder whose opcode argument is a parameter (AppendRaw,
// AppendClientID) cannot be matched to one table row; it is still
// pair-checked against its decoder when one exists. An encoder with a
// constant opcode and a non-empty payload must have a decoder.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// field is one element of a payload sequence.
type field struct {
	kind string  // u8, u16, u32, u64, bytes, rep, opt
	sub  []field // for rep/opt groups
	src  string  // source text of u8 index reads, for dedup
}

// canon renders a sequence in canonical space-joined form, the
// comparison currency of the whole analyzer.
func canon(seq []field) string {
	parts := make([]string, len(seq))
	for i, f := range seq {
		switch f.kind {
		case "rep", "opt":
			parts[i] = f.kind + "(" + canon(f.sub) + ")"
		default:
			parts[i] = f.kind
		}
	}
	return strings.Join(parts, " ")
}

// encoder is one collected Append* function.
type encoder struct {
	decl *ast.FuncDecl
	// opConst is the opcode constant's name when the beginFrame
	// argument is a constant ("" for parameterized encoders).
	opConst string
	seq     []field
}

// checkCodecs pairs every encoder with its decoder and diffs both
// against table's payload column (nil table: no pinned table).
func checkCodecs(pass *lint.Pass, table *directive) {
	encs := collectEncoders(pass)
	if len(encs) == 0 {
		// Not a codec package: no beginFrame-opening Append* helpers.
		return
	}
	decs := collectDecoders(pass)
	rows := payloadRows(table)

	names := make([]string, 0, len(encs))
	for name := range encs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		enc := encs[name]
		base := strings.TrimPrefix(name, "Append")
		encSeq := canon(enc.seq)
		dec, ok := decs["Decode"+base]
		if !ok {
			if enc.opConst != "" && encSeq != "" {
				pass.Reportf(enc.decl.Pos(),
					"encoder %s (opcode %s) has no Decode%s counterpart: its payload [%s] can never be read back",
					name, enc.opConst, base, encSeq)
			}
			continue
		}
		decSeq := canon(dec.seq)
		if encSeq != decSeq {
			pass.Reportf(enc.decl.Pos(),
				"codec asymmetry: %s emits [%s] but Decode%s consumes [%s]",
				name, encSeq, base, decSeq)
		}
		if enc.opConst != "" && rows != nil {
			rowName := snake(strings.TrimPrefix(enc.opConst, table.prefix))
			row, ok := rows[rowName]
			switch {
			case !ok:
				pass.Reportf(enc.decl.Pos(),
					"opcode %s has no payload row %q in the pinned opcode table", enc.opConst, rowName)
			case row.err != "":
				pass.Reportf(enc.decl.Pos(),
					"opcode table payload cell for %q does not parse: %s", rowName, row.err)
			case row.canon != encSeq:
				pass.Reportf(enc.decl.Pos(),
					"payload drift: %s emits [%s] but the pinned opcode table documents %q as [%s]",
					name, encSeq, rowName, row.canon)
			}
		}
	}
}

// --- Encoder extraction ----------------------------------------------------

// collectEncoders finds every Append* function that opens a frame
// with beginFrame and extracts its field sequence.
func collectEncoders(pass *lint.Pass) map[string]*encoder {
	out := make(map[string]*encoder)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Append") {
				continue
			}
			enc := extractEncoder(pass, fd)
			if enc != nil {
				out[fd.Name.Name] = enc
			}
		}
	}
	return out
}

// extractEncoder walks the body for the dst-building idiom; nil when
// the function never calls beginFrame.
func extractEncoder(pass *lint.Pass, fd *ast.FuncDecl) *encoder {
	info := pass.TypesInfo
	enc := &encoder{decl: fd}
	var dst *types.Var // the slice being grown, bound at beginFrame
	sawBegin := false

	var walkStmts func(list []ast.Stmt) []field
	var stmtFields func(s ast.Stmt) []field
	stmtFields = func(s ast.Stmt) []field {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == 0 || len(st.Rhs) == 0 {
				return nil
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return nil
			}
			// dst, off := beginFrame(dst, stream, op)
			if isPkgCall(info, call, "beginFrame") && len(call.Args) == 3 {
				sawBegin = true
				if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok {
					if v, ok := info.Defs[id].(*types.Var); ok {
						dst = v
					} else if v, ok := info.Uses[id].(*types.Var); ok {
						dst = v
					}
				}
				if c, ok := exprObject(info, call.Args[2]).(*types.Const); ok {
					enc.opConst = c.Name()
				}
				return nil
			}
			// dst = <append-form>(dst, ...)
			if dst == nil || !isVarIdent(info, st.Lhs[0], dst) {
				return nil
			}
			return appendFields(info, call, dst)
		case *ast.BlockStmt:
			return walkStmts(st.List)
		case *ast.IfStmt:
			sub := walkStmts(st.Body.List)
			var out []field
			if len(sub) > 0 {
				out = append(out, field{kind: "opt", sub: sub})
			}
			if st.Else != nil {
				esub := stmtFields(st.Else)
				if len(esub) > 0 {
					out = append(out, field{kind: "opt", sub: esub})
				}
			}
			return out
		case *ast.ForStmt:
			if sub := walkStmts(st.Body.List); len(sub) > 0 {
				return []field{{kind: "rep", sub: sub}}
			}
		case *ast.RangeStmt:
			if sub := walkStmts(st.Body.List); len(sub) > 0 {
				return []field{{kind: "rep", sub: sub}}
			}
		}
		return nil
	}
	walkStmts = func(list []ast.Stmt) []field {
		var out []field
		for _, s := range list {
			out = append(out, stmtFields(s)...)
		}
		return out
	}
	enc.seq = walkStmts(fd.Body.List)
	if !sawBegin {
		return nil
	}
	return enc
}

// appendFields classifies one `dst = f(dst, ...)` growth step.
func appendFields(info *types.Info, call *ast.CallExpr, dst *types.Var) []field {
	// binary.BigEndian.AppendUintN(dst, x)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if n, ok := uintWidth(sel.Sel.Name, "AppendUint"); ok && len(call.Args) == 2 && isVarIdent(info, call.Args[0], dst) {
			return []field{{kind: n}}
		}
	}
	// append(dst, ...)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) >= 2 && isVarIdent(info, call.Args[0], dst) {
			if call.Ellipsis != token.NoPos {
				return []field{{kind: "bytes"}}
			}
			out := make([]field, 0, len(call.Args)-1)
			for range call.Args[1:] {
				out = append(out, field{kind: "u8"})
			}
			return out
		}
	}
	return nil
}

// --- Decoder extraction ----------------------------------------------------

// decoder is one collected Decode* function.
type decoder struct {
	decl *ast.FuncDecl
	seq  []field
}

// collectDecoders finds every Decode* function whose first parameter
// is a byte slice and extracts the consumption sequence.
func collectDecoders(pass *lint.Pass) map[string]*decoder {
	out := make(map[string]*decoder)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Decode") {
				continue
			}
			p := firstByteSliceParam(pass.TypesInfo, fd)
			if p == nil {
				continue
			}
			out[fd.Name.Name] = &decoder{decl: fd, seq: extractDecoder(pass, fd, p)}
		}
	}
	return out
}

func firstByteSliceParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return nil
	}
	names := fd.Type.Params.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, ok := info.Defs[names[0]].(*types.Var)
	if !ok {
		return nil
	}
	sl, ok := v.Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Byte && b.Kind() != types.Uint8 {
		return nil
	}
	return v
}

// extractDecoder walks the body collecting payload consumption
// events in statement order.
func extractDecoder(pass *lint.Pass, fd *ast.FuncDecl, p *types.Var) []field {
	info := pass.TypesInfo

	// exprFields collects events inside one expression tree.
	var exprFields func(e ast.Expr) []field
	exprFields = func(e ast.Expr) []field {
		var out []field
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				// binary.BigEndian.UintN(pslice): one fixed-width read;
				// the slice argument is consumed by the event.
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if w, ok := uintWidth(sel.Sel.Name, "Uint"); ok && len(x.Args) == 1 && rootedAt(info, x.Args[0], p) {
						out = append(out, field{kind: w})
						return false
					}
				}
				// len(p)/cap(p): size guards, not reads.
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
						return false
					}
				}
				return true
			case *ast.IndexExpr:
				if rootedAt(info, x, p) {
					out = append(out, field{kind: "u8", src: types.ExprString(x)})
					return false
				}
			case *ast.SliceExpr:
				if rootedAt(info, x, p) {
					out = append(out, field{kind: "bytes"})
					return false
				}
			case *ast.Ident:
				// A bare payload reference flowing somewhere whole
				// (return p, copy(dst, p), string(p)).
				if v, ok := info.Uses[x].(*types.Var); ok && v == p {
					out = append(out, field{kind: "bytes"})
				}
			}
			return true
		})
		return out
	}

	var walkStmts func(list []ast.Stmt) []field
	var stmtFields func(s ast.Stmt) []field
	stmtFields = func(s ast.Stmt) []field {
		switch st := s.(type) {
		case *ast.AssignStmt:
			// Reslice bookkeeping `p = p[k:]` consumes nothing.
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 && isVarIdent(info, st.Lhs[0], p) {
				if sl, ok := ast.Unparen(st.Rhs[0]).(*ast.SliceExpr); ok && rootedAt(info, sl, p) {
					return nil
				}
			}
			var out []field
			for _, r := range st.Rhs {
				out = append(out, exprFields(r)...)
			}
			return out
		case *ast.BlockStmt:
			return walkStmts(st.List)
		case *ast.IfStmt:
			out := exprFields(st.Cond)
			sub := walkStmts(st.Body.List)
			if len(sub) > 0 {
				out = append(out, field{kind: "opt", sub: sub})
			}
			if st.Else != nil {
				if esub := stmtFields(st.Else); len(esub) > 0 {
					out = append(out, field{kind: "opt", sub: esub})
				}
			}
			return out
		case *ast.ForStmt:
			if sub := walkStmts(st.Body.List); len(sub) > 0 {
				return []field{{kind: "rep", sub: sub}}
			}
		case *ast.RangeStmt:
			if sub := walkStmts(st.Body.List); len(sub) > 0 {
				return []field{{kind: "rep", sub: sub}}
			}
		case *ast.ReturnStmt:
			var out []field
			for _, r := range st.Results {
				out = append(out, exprFields(r)...)
			}
			return out
		case *ast.ExprStmt:
			return exprFields(st.X)
		case *ast.DeclStmt:
			var out []field
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							out = append(out, exprFields(v)...)
						}
					}
				}
			}
			return out
		case *ast.SwitchStmt:
			var out []field
			if st.Tag != nil {
				out = exprFields(st.Tag)
			}
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					if sub := walkStmts(c.Body); len(sub) > 0 {
						out = append(out, field{kind: "opt", sub: sub})
					}
				}
			}
			return out
		}
		return nil
	}
	walkStmts = func(list []ast.Stmt) []field {
		var out []field
		for _, s := range list {
			for _, f := range stmtFields(s) {
				// Consecutive u8 reads of the same byte are one field:
				// flag decoding reads p[0] per flag bit.
				if f.kind == "u8" && f.src != "" && len(out) > 0 {
					last := out[len(out)-1]
					if last.kind == "u8" && last.src == f.src {
						continue
					}
				}
				out = append(out, f)
			}
		}
		return out
	}
	return dedupWithin(walkStmts(fd.Body.List))
}

// dedupWithin collapses consecutive same-source u8 reads across a
// whole sequence (they can land adjacently from sibling expressions
// in one statement) and recurses into groups.
func dedupWithin(seq []field) []field {
	var out []field
	for _, f := range seq {
		if len(f.sub) > 0 {
			f.sub = dedupWithin(f.sub)
		}
		if f.kind == "u8" && f.src != "" && len(out) > 0 {
			last := out[len(out)-1]
			if last.kind == "u8" && last.src == f.src {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// --- Table loading ---------------------------------------------------------

// tableRow is one opcode's parsed Payload cell.
type tableRow struct {
	canon string
	err   string
}

// payloadRows parses the Payload column (the third cell) of every row
// of the package's record table; a repeated name keeps its first row.
// nil when the package pins no readable table — the record-table
// check reports a broken pin, and the codec check just loses the doc
// diff.
func payloadRows(table *directive) map[string]tableRow {
	if table == nil || table.err != nil || table.readErr != nil {
		return nil
	}
	rows := make(map[string]tableRow, len(table.rows))
	seen := make(map[string]bool, len(table.rows))
	for _, r := range table.rows {
		if seen[r.name] {
			continue
		}
		seen[r.name] = true
		if len(r.cells) < 3 {
			continue // no Payload column on this row
		}
		seq, err := parsePayloadCell(r.cells[2])
		if err != nil {
			rows[r.name] = tableRow{err: err.Error()}
			continue
		}
		rows[r.name] = tableRow{canon: canon(seq)}
	}
	return rows
}

// parsePayloadCell parses the table grammar: `-` empty, atoms
// u8/u16/u32/u64/bytes, `n*(...)` repetition, `[...]` optional,
// comma-separated.
func parsePayloadCell(cell string) ([]field, error) {
	cell = strings.TrimSpace(cell)
	if cell == "-" || cell == "" {
		return nil, nil
	}
	p := &cellParser{in: cell}
	seq, err := p.sequence()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("trailing %q", p.in[p.pos:])
	}
	return seq, nil
}

type cellParser struct {
	in  string
	pos int
}

func (p *cellParser) ws() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

// sequence := atom ("," atom)*
func (p *cellParser) sequence() ([]field, error) {
	var out []field
	for {
		f, err := p.atom()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		p.ws()
		if p.pos < len(p.in) && p.in[p.pos] == ',' {
			p.pos++
			continue
		}
		return out, nil
	}
}

// atom := "u8".."u64" | "bytes" | ident "*(" sequence ")" | "[" sequence "]"
func (p *cellParser) atom() (field, error) {
	p.ws()
	if p.pos >= len(p.in) {
		return field{}, errors.New("unexpected end of payload grammar")
	}
	if p.in[p.pos] == '[' {
		p.pos++
		seq, err := p.sequence()
		if err != nil {
			return field{}, err
		}
		p.ws()
		if p.pos >= len(p.in) || p.in[p.pos] != ']' {
			return field{}, errors.New("unclosed [optional] group")
		}
		p.pos++
		return field{kind: "opt", sub: seq}, nil
	}
	start := p.pos
	for p.pos < len(p.in) && (isWordByte(p.in[p.pos])) {
		p.pos++
	}
	word := p.in[start:p.pos]
	p.ws()
	if p.pos+1 < len(p.in) && p.in[p.pos] == '*' && p.in[p.pos+1] == '(' {
		p.pos += 2
		seq, err := p.sequence()
		if err != nil {
			return field{}, err
		}
		p.ws()
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return field{}, errors.New("unclosed repetition group")
		}
		p.pos++
		return field{kind: "rep", sub: seq}, nil
	}
	switch word {
	case "u8", "u16", "u32", "u64", "bytes":
		return field{kind: word}, nil
	}
	return field{}, fmt.Errorf("unknown payload atom %q", word)
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9'
}

// --- Small helpers ---------------------------------------------------------

// uintWidth maps AppendUint32/Uint32-style names (after prefix) to a
// field kind.
func uintWidth(name, prefix string) (string, bool) {
	if !strings.HasPrefix(name, prefix) {
		return "", false
	}
	switch strings.TrimPrefix(name, prefix) {
	case "16":
		return "u16", true
	case "32":
		return "u32", true
	case "64":
		return "u64", true
	}
	return "", false
}

// isPkgCall reports a call to the package-level function named name.
func isPkgCall(info *types.Info, call *ast.CallExpr, name string) bool {
	fn, ok := lint.CalleeObject(info, call).(*types.Func)
	return ok && fn.Name() == name
}

// isVarIdent reports that e is (parenthesized) exactly the variable v.
func isVarIdent(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj == v
}

// rootedAt reports that e's innermost operand chain bottoms out at
// the variable v (p, p[i], p[a:b], (p)[i]...).
func rootedAt(info *types.Info, e ast.Expr, v *types.Var) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x] == v
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return false
		}
	}
}
