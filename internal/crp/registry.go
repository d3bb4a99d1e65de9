package crp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// maxDensePairs bounds the dense representation: a voltage plane
// whose full pair space fits in this many bits (8 MiB of bitset) is
// tracked densely; anything larger falls back to a hash set so a big
// cache never preallocates gigabytes for a mostly-unused space.
const maxDensePairs = 1 << 26

// Registry tracks consumed pairs so no pair is ever reused in either
// orientation. It is safe for concurrent use.
//
// Every pair has one name, its triangular number: the canonical pair
// lo < hi of an n-line geometry is index lo*n - lo*(lo+1)/2 + hi-lo-1
// in [0, n(n-1)/2). Coordinates outside the geometry (possible on
// hostile or restored input) have no index: Consume refuses them,
// Mark skips them and IsUsed reports them fresh. Two representations
// store the indexes per voltage plane. The dense form, chosen when
// the pair space fits maxDensePairs, keeps one lazily-allocated
// bitset per plane: probes and burns are single bit operations, which
// is what keeps the registry off the wire protocol's hot-path
// profile. The sparse form keeps one hash set of indexes per plane,
// with memory proportional to consumption.
type Registry struct {
	// The geometry is fixed at construction.
	lines  int
	npairs uint64 // lines*(lines-1)/2, the size of the index space
	dense  bool

	mu     sync.Mutex
	planes map[int]*plane // vdd -> burned indexes
	undo   []burn         // scratch for Consume rollback, reused under mu
}

// plane holds one voltage level's burned indexes in its registry's
// representation: bits in the dense form, set in the sparse one.
type plane struct {
	bits []uint64
	set  map[uint64]struct{}
	n    int // burned indexes
}

func (p *plane) has(idx uint64) bool {
	if p.bits != nil {
		return p.bits[idx/64]&(1<<(idx%64)) != 0
	}
	_, ok := p.set[idx]
	return ok
}

// add burns idx, which must not be burned yet.
func (p *plane) add(idx uint64) {
	p.n++
	if p.bits != nil {
		p.bits[idx/64] |= 1 << (idx % 64)
		return
	}
	p.set[idx] = struct{}{}
}

// remove unburns idx, which must be burned.
func (p *plane) remove(idx uint64) {
	p.n--
	if p.bits != nil {
		p.bits[idx/64] &^= 1 << (idx % 64)
		return
	}
	delete(p.set, idx)
}

// appendIndexes appends the plane's burned indexes to dst in
// ascending order.
func (p *plane) appendIndexes(dst []uint64) []uint64 {
	if p.bits == nil {
		start := len(dst)
		for idx := range p.set {
			dst = append(dst, idx)
		}
		slices.Sort(dst[start:])
		return dst
	}
	for w, word := range p.bits {
		for word != 0 {
			dst = append(dst, uint64(w)*64+uint64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// burn names one tentatively-consumed pair for rollback.
type burn struct {
	vdd int
	idx uint64
}

// NewRegistryLines creates an empty registry for a cache geometry of
// lines lines, choosing the dense bitset representation when the pair
// space is small enough and the sparse one otherwise.
func NewRegistryLines(lines int) *Registry {
	return newRegistry(lines, lines > 1 && PossibleCRPs(lines) <= maxDensePairs)
}

func newRegistry(lines int, dense bool) *Registry {
	reg := &Registry{lines: lines, dense: dense, planes: make(map[int]*plane)}
	if lines > 1 {
		reg.npairs = PossibleCRPs(lines)
	}
	return reg
}

// index returns the pair's triangular number, or false when the pair
// lies outside the geometry or compares a line with itself.
func (reg *Registry) index(b PairBit) (uint64, bool) {
	lo, hi := b.A, b.B
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 || hi >= reg.lines || lo == hi {
		return 0, false
	}
	l, h, n := uint64(lo), uint64(hi), uint64(reg.lines)
	return l*n - l*(l+1)/2 + h - l - 1, true
}

// newPlane allocates an empty plane in the registry's representation,
// sized for about hint burns.
func (reg *Registry) newPlane(hint int) *plane {
	if reg.dense {
		return &plane{bits: make([]uint64, (reg.npairs+63)/64)}
	}
	return &plane{set: make(map[uint64]struct{}, hint)}
}

// planeLocked returns (allocating lazily) the burned set of one voltage
// plane. Callers hold reg.mu.
func (reg *Registry) planeLocked(vdd int) *plane {
	p, ok := reg.planes[vdd]
	if !ok {
		p = reg.newPlane(0)
		reg.planes[vdd] = p
	}
	return p
}

// Used reports the number of consumed pairs.
func (reg *Registry) Used() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	n := 0
	for _, p := range reg.planes {
		n += p.n
	}
	return n
}

// Consume atomically checks that none of the challenge's pairs have
// been used and marks them all used. If any pair (in either
// orientation) was already consumed — including a challenge reusing
// its own pair internally, which is as replayable as reusing a past
// one — or lies outside the geometry, nothing is marked and the
// method returns false.
func (reg *Registry) Consume(c *Challenge) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	// Burn tentatively — the second occurrence of an in-challenge
	// duplicate finds the first burn — and roll back on any refusal.
	reg.undo = reg.undo[:0]
	var p *plane
	vdd := 0
	for _, b := range c.Bits {
		idx, ok := reg.index(b)
		if !ok {
			reg.rollbackLocked()
			return false
		}
		if p == nil || b.VddMV != vdd {
			p, vdd = reg.planeLocked(b.VddMV), b.VddMV
		}
		if p.has(idx) {
			reg.rollbackLocked()
			return false
		}
		p.add(idx)
		reg.undo = append(reg.undo, burn{vdd: b.VddMV, idx: idx})
	}
	reg.undo = reg.undo[:0]
	return true
}

// rollbackLocked clears the tentative burns of a failed Consume.
// Callers hold reg.mu.
func (reg *Registry) rollbackLocked() {
	for _, u := range reg.undo {
		reg.planes[u.vdd].remove(u.idx)
	}
	reg.undo = reg.undo[:0]
}

// Mark force-records pairs as consumed without the no-reuse check.
// Journal replay uses it: a replayed burn may overlap pairs the
// snapshot already holds, and re-marking a consumed pair is the
// idempotent direction (a pair can only ever become *more* dead).
func (reg *Registry) Mark(pairs []PairBit) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	// A burn's pairs mostly share one plane: look it up once per run of
	// equal voltages, not once per pair (as Consume does).
	var p *plane
	vdd := 0
	for _, b := range pairs {
		idx, ok := reg.index(b)
		if !ok {
			continue
		}
		if p == nil || b.VddMV != vdd {
			p, vdd = reg.planeLocked(b.VddMV), b.VddMV
		}
		if !p.has(idx) {
			p.add(idx)
		}
	}
}

// IsUsed reports whether the pair of a single bit was consumed before.
func (reg *Registry) IsUsed(b PairBit) bool {
	idx, ok := reg.index(b)
	if !ok {
		return false
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	p := reg.planes[b.VddMV]
	return p != nil && p.has(idx)
}

// AppendEncoded appends the registry's burned pairs to dst in the
// snapshot encoding:
//
//	uvarint planes
//	per non-empty plane, in ascending voltage order:
//	  varint  vdd (mV)
//	  uvarint n, the plane's burned pairs
//	  n uvarints: the first index, then each index's distance to the
//	  one before it, minus one
//
// Indexes are triangular numbers and ascend strictly, so the gaps of
// a busy plane take one or two bytes each. The geometry is not
// encoded: DecodeRegistry is told it. The encoding is canonical: two
// registries holding the same pairs encode identically, whichever
// representation they use.
func (reg *Registry) AppendEncoded(dst []byte) []byte {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	// A plane left empty by a rolled-back Consume is not written.
	vdds := make([]int, 0, len(reg.planes))
	most := 0
	for vdd, p := range reg.planes {
		if p.n > 0 {
			vdds = append(vdds, vdd)
			most = max(most, p.n)
		}
	}
	slices.Sort(vdds)
	dst = binary.AppendUvarint(dst, uint64(len(vdds)))
	idxs := make([]uint64, 0, most)
	for _, vdd := range vdds {
		idxs = reg.planes[vdd].appendIndexes(idxs[:0])
		dst = binary.AppendVarint(dst, int64(vdd))
		dst = binary.AppendUvarint(dst, uint64(len(idxs)))
		next := uint64(0)
		for _, idx := range idxs {
			dst = binary.AppendUvarint(dst, idx-next)
			next = idx + 1
		}
	}
	return dst
}

// DecodeRegistry reads one AppendEncoded block from the front of src
// for a geometry of lines lines, and returns the registry and the
// bytes after the block. It never panics: truncated input, a count
// larger than the remaining bytes could hold, an index outside the
// geometry, and an empty, repeated or out-of-order plane are errors.
func DecodeRegistry(lines int, src []byte) (*Registry, []byte, error) {
	reg := NewRegistryLines(lines)
	nplanes, src, err := uvarint(src)
	if err != nil {
		return nil, nil, err
	}
	// Every plane takes at least three bytes.
	if nplanes > uint64(len(src))/3 {
		return nil, nil, fmt.Errorf("crp: registry claims %d planes in %d bytes", nplanes, len(src))
	}
	prev := 0
	for i := uint64(0); i < nplanes; i++ {
		v, rest, err := varint(src)
		if err != nil {
			return nil, nil, err
		}
		vdd := int(v)
		if int64(vdd) != v || (i > 0 && vdd <= prev) {
			return nil, nil, fmt.Errorf("crp: registry plane %d mV repeated or out of order", v)
		}
		prev = vdd
		n, rest, err := uvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		// Every index takes at least one byte.
		if n == 0 || n > uint64(len(rest)) {
			return nil, nil, fmt.Errorf("crp: registry plane %d mV claims %d pairs in %d bytes", vdd, n, len(rest))
		}
		p := reg.newPlane(int(n))
		reg.planes[vdd] = p
		next := uint64(0)
		for j := uint64(0); j < n; j++ {
			var gap uint64
			gap, rest, err = uvarint(rest)
			if err != nil {
				return nil, nil, err
			}
			if gap >= reg.npairs-next {
				return nil, nil, fmt.Errorf("crp: registry plane %d mV has an index outside the %d-line geometry", vdd, lines)
			}
			p.add(next + gap)
			next += gap + 1
		}
		src = rest
	}
	return reg, src, nil
}

func uvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("crp: registry truncated or overlong varint")
	}
	return v, src[n:], nil
}

func varint(src []byte) (int64, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("crp: registry truncated or overlong varint")
	}
	return v, src[n:], nil
}
