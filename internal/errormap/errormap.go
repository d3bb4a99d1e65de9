// Package errormap implements Authenticache's central data structure:
// the per-voltage error map (paper Section 4, Figure 4).
//
// The cache lines that raise correctable ECC errors at a given supply
// voltage are projected onto a two-dimensional plane; lines with errors
// are 1, error-free lines are 0. Stacking planes for multiple voltage
// levels yields the (x, y, Vdd) volume the paper describes. Challenges
// ask which of two coordinates lies closer — in Manhattan distance —
// to its nearest error.
//
// The plane is a near-square "geographic" layout of the line index
// space (⌈√n⌉ columns). A near-square plane is what gives the PUF its
// Figure 15 distance statistics: the mean nearest-error L1 distance of
// k random errors among n lines is ≈ √(π·n/(8k)).
//
// Two nearest-error search strategies are provided, matching the two
// sides of the protocol:
//
//   - RingSearch walks outward over Von Neumann neighbourhoods of
//     growing radius, clockwise from north — exactly how the client
//     firmware self-tests neighbouring lines (paper Section 5.4). It
//     also reports how many cells were probed, which drives the
//     performance model of Figures 13–14.
//   - DistanceTransform runs a two-pass raster transform producing all
//     nearest distances in O(n), which the server uses to evaluate many
//     challenges against a stored map.
package errormap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Coord is a position on an error-map plane.
type Coord struct {
	X, Y int
}

// Geometry describes the logical plane layout for a cache with Lines
// cache lines: Width columns, enough rows to cover every line, with
// the last row possibly partial.
type Geometry struct {
	Lines int
	Width int
}

// NewGeometry returns the near-square geometry for n cache lines.
func NewGeometry(n int) Geometry {
	if n <= 0 {
		panic("errormap: geometry needs at least one line")
	}
	w := int(math.Ceil(math.Sqrt(float64(n))))
	return Geometry{Lines: n, Width: w}
}

// Height returns the number of rows (the last may be partial).
func (g Geometry) Height() int { return (g.Lines + g.Width - 1) / g.Width }

// Coord converts a line index into plane coordinates.
func (g Geometry) Coord(line int) Coord {
	if line < 0 || line >= g.Lines {
		panic(fmt.Sprintf("errormap: line %d out of range [0,%d)", line, g.Lines))
	}
	return Coord{X: line % g.Width, Y: line / g.Width}
}

// Line converts plane coordinates back to a line index. The second
// return is false if the coordinate falls outside the populated area.
func (g Geometry) Line(c Coord) (int, bool) {
	if c.X < 0 || c.X >= g.Width || c.Y < 0 {
		return 0, false
	}
	line := c.Y*g.Width + c.X
	if line >= g.Lines {
		return 0, false
	}
	return line, true
}

// Contains reports whether c addresses a populated cell.
func (g Geometry) Contains(c Coord) bool {
	_, ok := g.Line(c)
	return ok
}

// Manhattan returns the L1 distance between two coordinates (paper
// equation (9)).
func Manhattan(a, b Coord) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Plane is one voltage level's error bitmap.
type Plane struct {
	geo  Geometry
	bits []uint64
	n    int // number of set bits
}

// NewPlane creates an empty plane over the geometry.
func NewPlane(g Geometry) *Plane {
	return &Plane{geo: g, bits: make([]uint64, (g.Lines+63)/64)}
}

// Geometry returns the plane's layout.
func (p *Plane) Geometry() Geometry { return p.geo }

// ErrorCount returns the number of error cells set.
func (p *Plane) ErrorCount() int { return p.n }

// Set marks line as erroneous (true) or clean (false).
func (p *Plane) Set(line int, v bool) {
	if line < 0 || line >= p.geo.Lines {
		panic(fmt.Sprintf("errormap: set line %d out of range", line))
	}
	w, b := line/64, uint(line%64)
	old := p.bits[w]>>b&1 == 1
	if v == old {
		return
	}
	if v {
		p.bits[w] |= 1 << b
		p.n++
	} else {
		p.bits[w] &^= 1 << b
		p.n--
	}
}

// Get reports whether line is marked erroneous.
func (p *Plane) Get(line int) bool {
	if line < 0 || line >= p.geo.Lines {
		panic(fmt.Sprintf("errormap: get line %d out of range", line))
	}
	return p.bits[line/64]>>(uint(line%64))&1 == 1
}

// GetCoord reports whether the cell at c is erroneous; out-of-grid
// coordinates are clean by definition.
func (p *Plane) GetCoord(c Coord) bool {
	line, ok := p.geo.Line(c)
	if !ok {
		return false
	}
	return p.Get(line)
}

// Errors returns the line indices of all error cells in ascending
// order.
func (p *Plane) Errors() []int {
	out := make([]int, 0, p.n)
	for w, word := range p.bits {
		for word != 0 {
			b := trailingZeros64(word)
			line := w*64 + b
			if line < p.geo.Lines {
				out = append(out, line)
			}
			word &= word - 1
		}
	}
	return out
}

func trailingZeros64(x uint64) int {
	if x == 0 {
		return 64
	}
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.geo)
	copy(q.bits, p.bits)
	q.n = p.n
	return q
}

// Equal reports whether two planes have identical geometry and bits.
func (p *Plane) Equal(q *Plane) bool {
	if p.geo != q.geo || p.n != q.n {
		return false
	}
	for i := range p.bits {
		if p.bits[i] != q.bits[i] {
			return false
		}
	}
	return true
}

// DiffCount returns the number of cells whose error status differs.
func (p *Plane) DiffCount(q *Plane) int {
	if p.geo != q.geo {
		panic("errormap: DiffCount on mismatched geometries")
	}
	d := 0
	for i := range p.bits {
		d += popcount64(p.bits[i] ^ q.bits[i])
	}
	return d
}

func popcount64(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// RandomPlane draws a plane with exactly k distinct error cells placed
// uniformly at random — the Monte Carlo workhorse behind the paper's
// simulated evaluation ("randomly generated error maps").
func RandomPlane(g Geometry, k int, r *rng.Rand) *Plane {
	if k < 0 || k > g.Lines {
		panic(fmt.Sprintf("errormap: cannot place %d errors in %d lines", k, g.Lines))
	}
	p := NewPlane(g)
	for _, line := range r.SampleK(g.Lines, k) {
		p.Set(line, true)
	}
	return p
}

// --- Nearest-error search -------------------------------------------------

// RingProbe is one cell visit during a ring search, in firmware test
// order.
type RingProbe struct {
	Line int
	Dist int
}

// RingSearch finds the Manhattan distance from c to the nearest error
// by expanding Von Neumann neighbourhoods outward, visiting each ring
// clockwise starting from north — the client firmware's test order. It
// returns the distance, whether any error exists, and the number of
// populated cells probed (the self-test count before the error was
// found, used by the timing model).
//
// The search includes radius 0 (the target cell itself), matching the
// map semantics where a challenge coordinate may itself carry an error.
func (p *Plane) RingSearch(c Coord) (dist int, found bool, probes int) {
	if p.n == 0 {
		return 0, false, 0
	}
	g := p.geo
	maxR := g.Width + g.Height() // no cell is farther than this
	for r := 0; r <= maxR; r++ {
		hit := false
		visitRing(c, r, func(cell Coord) {
			if hit {
				return // the firmware stops testing once a ring hits
			}
			if !g.Contains(cell) {
				return
			}
			probes++
			if p.GetCoord(cell) {
				hit = true
			}
		})
		if hit {
			return r, true, probes
		}
	}
	return 0, false, probes
}

// visitRing calls fn for every cell at Manhattan distance r from c,
// clockwise starting from north ((0,-r) up in screen coordinates).
// For r == 0 it visits c itself.
func visitRing(c Coord, r int, fn func(Coord)) {
	if r == 0 {
		fn(c)
		return
	}
	// Four diagonal legs of the L1 circle, traversed clockwise:
	// north -> east -> south -> west -> back to north.
	for i := 0; i < r; i++ { // N (0,-r) towards E (r,0)
		fn(Coord{c.X + i, c.Y - r + i})
	}
	for i := 0; i < r; i++ { // E (r,0) towards S (0,r)
		fn(Coord{c.X + r - i, c.Y + i})
	}
	for i := 0; i < r; i++ { // S (0,r) towards W (-r,0)
		fn(Coord{c.X - i, c.Y + r - i})
	}
	for i := 0; i < r; i++ { // W (-r,0) towards N (0,-r)
		fn(Coord{c.X - r + i, c.Y - i})
	}
}

// DistanceField holds every cell's Manhattan distance to the nearest
// error, produced by DistanceTransform.
type DistanceField struct {
	geo  Geometry
	dist []int32
}

// DistanceTransform computes the full nearest-error distance field in
// O(n) with the two-pass raster L1 transform: a forward pass takes
// each cell's distance from the cell above, then from the cell to its
// left; a backward pass from below, then from the right. It returns
// nil if the plane has no errors.
//
// Two passes are exact on a full rectangle, so they run over the
// padded Width × Height grid; the padding past a partial last row
// holds no error and is sliced off. The result is the Manhattan
// distance to the nearest error, which is also the shortest path
// through populated cells: every row but the last is full, so a
// monotone path between two populated cells always exists.
func (p *Plane) DistanceTransform() *DistanceField {
	if p.n == 0 {
		return nil
	}
	g := p.geo
	// A single row needs no padding, whatever width it claims.
	w := min(g.Width, g.Lines)
	h := (g.Lines + w - 1) / w
	dist := make([]int32, w*h)
	far := int32(w + h) // beyond any distance on the grid
	for i := range dist {
		dist[i] = far
	}
	for wi, word := range p.bits {
		for word != 0 {
			dist[wi*64+trailingZeros64(word)] = 0
			word &= word - 1
		}
	}
	// Each sweep carries the cell it just settled in run, so a step
	// reads only the cell and its neighbour in the adjacent row. Row 0
	// (and row h-1 going back) reads itself as that neighbour, which
	// never lowers a cell.
	for y := 0; y < h; y++ {
		row := dist[y*w : (y+1)*w]
		up := row
		if y > 0 {
			up = dist[(y-1)*w : y*w]
		}
		run := far
		for x := range row {
			run = min(row[x], up[x]+1, run+1)
			row[x] = run
		}
	}
	for y := h - 1; y >= 0; y-- {
		row := dist[y*w : (y+1)*w]
		down := row
		if y < h-1 {
			down = dist[(y+1)*w : (y+2)*w]
		}
		run := far
		for x := w - 1; x >= 0; x-- {
			run = min(row[x], down[x]+1, run+1)
			row[x] = run
		}
	}
	return &DistanceField{geo: g, dist: dist[:g.Lines]}
}

// Dist returns the distance from c to the nearest error. Out-of-grid
// coordinates panic.
func (df *DistanceField) Dist(c Coord) int {
	line, ok := df.geo.Line(c)
	if !ok {
		panic(fmt.Sprintf("errormap: distance query outside grid: %+v", c))
	}
	return int(df.dist[line])
}

// DistLine returns the nearest-error distance of a line index.
func (df *DistanceField) DistLine(line int) int { return int(df.dist[line]) }

// Mean returns the average nearest-error distance over all cells —
// the quantity plotted in Figure 15.
func (df *DistanceField) Mean() float64 {
	var sum float64
	for _, d := range df.dist {
		sum += float64(d)
	}
	return sum / float64(len(df.dist))
}

// --- Serialization ---------------------------------------------------------

const planeMagic = 0x41434d50 // "ACMP"

// MarshalBinary encodes the plane as a compact, versioned byte stream.
func (p *Plane) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 16+len(p.bits)*8)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], planeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 1) // version
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.geo.Lines))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.geo.Width))
	buf = append(buf, hdr[:]...)
	var w [8]byte
	for _, word := range p.bits {
		binary.LittleEndian.PutUint64(w[:], word)
		buf = append(buf, w[:]...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a plane produced by MarshalBinary.
func (p *Plane) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return errors.New("errormap: truncated plane header")
	}
	if binary.LittleEndian.Uint32(data[0:]) != planeMagic {
		return errors.New("errormap: bad plane magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != 1 {
		return fmt.Errorf("errormap: unsupported plane version %d", v)
	}
	lines := int(binary.LittleEndian.Uint32(data[8:]))
	width := int(binary.LittleEndian.Uint32(data[12:]))
	if lines <= 0 || width <= 0 {
		return errors.New("errormap: invalid plane geometry")
	}
	nWords := (lines + 63) / 64
	if len(data) != 16+nWords*8 {
		return fmt.Errorf("errormap: plane payload is %d bytes, want %d", len(data)-16, nWords*8)
	}
	geo := Geometry{Lines: lines, Width: width}
	bits := make([]uint64, nWords)
	n := 0
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[16+i*8:])
		n += popcount64(bits[i])
	}
	// Reject stray bits beyond the line count.
	if rem := lines % 64; rem != 0 {
		if bits[nWords-1]>>uint(rem) != 0 {
			return errors.New("errormap: stray bits beyond line count")
		}
	}
	p.geo = geo
	p.bits = bits
	p.n = n
	return nil
}
