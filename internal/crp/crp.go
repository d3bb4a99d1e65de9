// Package crp defines Authenticache's challenge-response pairs and
// their lifecycle (paper Sections 4.1–4.2).
//
// A challenge is a sequence of coordinate pairs on the (logical) error
// map; each pair contributes one response bit answering "is point A at
// least as close to an error as point B?" (paper equations (7)–(8)).
// Distances are Manhattan (equation (9)); ties respond 0, which is the
// source of the slight 0-bias the paper observes in Figure 12.
//
// Because challenges are built from *pairs* of arbitrary coordinates,
// a cache with n lines offers n(n-1)/2 distinct pairs (equation (10)).
// The package also implements the server-side no-reuse registry: once
// a pair (A,B) is consumed, both (A,B) and (B,A) are dead forever
// (Section 4.4's replay defence).
package crp

import (
	"fmt"

	"repro/internal/errormap"
	"repro/internal/rng"
)

// PairBit is one bit of a challenge: two line positions to compare and
// the supply voltage (in millivolts) whose error plane the comparison
// runs on. Positions are logical indices — the keyed remap has already
// been applied by the time a PairBit goes on the wire.
type PairBit struct {
	A     int `json:"a"`
	B     int `json:"b"`
	VddMV int `json:"vdd_mv"`
}

// Challenge is an ordered list of pair bits.
type Challenge struct {
	// ID identifies the challenge within one authentication session.
	ID   uint64    `json:"id"`
	Bits []PairBit `json:"bits"`
}

// Len returns the number of response bits the challenge produces.
func (c *Challenge) Len() int { return len(c.Bits) }

// Voltages returns the distinct voltage levels used by the challenge,
// in first-appearance order.
func (c *Challenge) Voltages() []int {
	seen := map[int]bool{}
	var out []int
	for _, b := range c.Bits {
		if !seen[b.VddMV] {
			seen[b.VddMV] = true
			out = append(out, b.VddMV)
		}
	}
	return out
}

// Validate checks every coordinate against the geometry.
func (c *Challenge) Validate(g errormap.Geometry) error {
	if len(c.Bits) == 0 {
		return fmt.Errorf("crp: empty challenge")
	}
	for i, b := range c.Bits {
		if b.A < 0 || b.A >= g.Lines || b.B < 0 || b.B >= g.Lines {
			return fmt.Errorf("crp: bit %d references line outside [0,%d)", i, g.Lines)
		}
		if b.A == b.B {
			return fmt.Errorf("crp: bit %d compares a line with itself", i)
		}
	}
	return nil
}

// Response is a packed bit vector, bit i of the challenge at
// Bits[i/8]>>(i%8)&1.
type Response struct {
	Bits []byte `json:"bits"`
	N    int    `json:"n"`
}

// NewResponse allocates an all-zero response of n bits.
func NewResponse(n int) Response {
	return Response{Bits: make([]byte, (n+7)/8), N: n}
}

// Bit returns response bit i.
func (r Response) Bit(i int) int {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("crp: response bit %d out of range [0,%d)", i, r.N))
	}
	return int(r.Bits[i/8]>>(uint(i)%8)) & 1
}

// SetBit sets response bit i to v.
func (r Response) SetBit(i, v int) {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("crp: response bit %d out of range [0,%d)", i, r.N))
	}
	if v&1 == 1 {
		r.Bits[i/8] |= 1 << (uint(i) % 8)
	} else {
		r.Bits[i/8] &^= 1 << (uint(i) % 8)
	}
}

// HammingDistance counts differing bits between two responses of equal
// length.
func (r Response) HammingDistance(other Response) int {
	if r.N != other.N {
		panic("crp: response length mismatch")
	}
	d := 0
	for i := range r.Bits {
		x := r.Bits[i] ^ other.Bits[i]
		for x != 0 {
			x &= x - 1
			d++
		}
	}
	return d
}

// DistanceOracle answers nearest-error distance queries for one
// voltage plane. The server backs it with a precomputed distance
// field; the client backs it with live targeted self-tests.
type DistanceOracle interface {
	// NearestDistance returns the Manhattan distance from the given
	// line position to the closest error on the plane, and whether any
	// error was found at all.
	NearestDistance(line int) (dist int, found bool)
}

// OracleSet provides a DistanceOracle per voltage level.
type OracleSet interface {
	Oracle(vddMV int) (DistanceOracle, error)
}

// ResponseBit computes one response bit per paper equation (8) given
// the two distances: 0 if dist(A) <= dist(B), else 1. Missing errors
// count as infinitely far; two missing distances tie to 0.
func ResponseBit(distA int, foundA bool, distB int, foundB bool) int {
	switch {
	case foundA && foundB:
		if distA <= distB {
			return 0
		}
		return 1
	case foundA:
		return 0
	case foundB:
		return 1
	default:
		return 0
	}
}

// Evaluate runs a challenge against the oracle set, producing the
// response. Bits are evaluated in challenge order.
func Evaluate(c *Challenge, oracles OracleSet) (Response, error) {
	resp := NewResponse(len(c.Bits))
	for i, b := range c.Bits {
		o, err := oracles.Oracle(b.VddMV)
		if err != nil {
			return Response{}, fmt.Errorf("crp: bit %d: %w", i, err)
		}
		da, fa := o.NearestDistance(b.A)
		db, fb := o.NearestDistance(b.B)
		resp.SetBit(i, ResponseBit(da, fa, db, fb))
	}
	return resp, nil
}

// FieldOracle adapts an errormap.DistanceField (server side).
type FieldOracle struct {
	Field *errormap.DistanceField
}

// NearestDistance implements DistanceOracle.
func (f FieldOracle) NearestDistance(line int) (int, bool) {
	if f.Field == nil {
		return 0, false
	}
	return f.Field.DistLine(line), true
}

// PlaneOracles serves FieldOracles for the planes of an error map,
// computing and caching distance fields lazily.
type PlaneOracles struct {
	Map    *errormap.Map
	fields map[int]*errormap.DistanceField
}

// NewPlaneOracles wraps an error map.
func NewPlaneOracles(m *errormap.Map) *PlaneOracles {
	return &PlaneOracles{Map: m, fields: make(map[int]*errormap.DistanceField)}
}

// Oracle implements OracleSet.
func (p *PlaneOracles) Oracle(vddMV int) (crpOracle DistanceOracle, err error) {
	if f, ok := p.fields[vddMV]; ok {
		return FieldOracle{Field: f}, nil
	}
	plane := p.Map.Plane(vddMV)
	if plane == nil {
		return nil, fmt.Errorf("crp: no error plane at %d mV", vddMV)
	}
	f := plane.DistanceTransform()
	p.fields[vddMV] = f
	return FieldOracle{Field: f}, nil
}

// Generate draws a challenge of nbits random pairs at one voltage
// level. Pairs are distinct positions but may repeat across bits; the
// no-reuse registry is enforced separately at issue time.
func Generate(g errormap.Geometry, nbits, vddMV int, r *rng.Rand) *Challenge {
	if nbits <= 0 {
		panic("crp: challenge needs at least one bit")
	}
	c := &Challenge{Bits: make([]PairBit, nbits)}
	for i := range c.Bits {
		a := r.Intn(g.Lines)
		b := r.Intn(g.Lines)
		for b == a {
			b = r.Intn(g.Lines)
		}
		c.Bits[i] = PairBit{A: a, B: b, VddMV: vddMV}
	}
	return c
}

// PossibleCRPs returns the total number of unordered pairs available
// from n lines: n(n-1)/2 (paper equation (10)).
func PossibleCRPs(n int) uint64 {
	un := uint64(n)
	return un * (un - 1) / 2
}

// DailyAuthentications computes the sustainable daily authentication
// rate over a lifetime, never reusing a pair: each authentication of
// crpBits bits consumes crpBits pairs (paper Table 1).
func DailyAuthentications(lines, crpBits, lifetimeDays int) uint64 {
	if crpBits <= 0 || lifetimeDays <= 0 {
		panic("crp: invalid lifetime parameters")
	}
	return PossibleCRPs(lines) / uint64(crpBits) / uint64(lifetimeDays)
}
