package crp

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// The registry has two representations behind one API: per-plane hash
// sets of pair indexes and, for small-enough geometries, the dense
// triangular bitset. These tests drive both side by side through
// randomized workloads and assert every observable agrees, so the fast
// path can never quietly diverge from the reference semantics.

// denseLines is small enough that NewRegistryLines picks the dense
// representation (n(n-1)/2 = 4950 pairs).
const denseLines = 100

func TestNewRegistryLinesPicksRepresentation(t *testing.T) {
	if reg := NewRegistryLines(denseLines); !reg.dense {
		t.Fatalf("NewRegistryLines(%d): want dense representation, got sparse", denseLines)
	}
	// 16384 lines is the authd default geometry: 134M pairs, beyond
	// maxDensePairs — must fall back to the hash sets.
	if reg := NewRegistryLines(16384); reg.dense {
		t.Fatalf("NewRegistryLines(16384): want sparse fallback, got dense")
	}
	if reg := NewRegistryLines(0); reg.dense {
		t.Fatalf("NewRegistryLines(0): want sparse fallback, got dense")
	}
}

// randomChallenge draws nbits pairs, possibly colliding, in random
// orientation, across a few voltage planes.
func randomChallenge(r *rng.Rand, nbits int) *Challenge {
	vdds := []int{640, 680, 720}
	c := &Challenge{Bits: make([]PairBit, nbits)}
	for i := range c.Bits {
		a := r.Intn(denseLines)
		b := r.Intn(denseLines)
		for b == a {
			b = r.Intn(denseLines)
		}
		c.Bits[i] = PairBit{A: a, B: b, VddMV: vdds[r.Intn(len(vdds))]}
	}
	return c
}

// TestDenseSparseEquivalence runs the same random Consume/Mark/IsUsed
// workload against both representations and checks that every return
// value, Used count, and the final encoding match exactly.
func TestDenseSparseEquivalence(t *testing.T) {
	r := rng.New(42)
	dense := NewRegistryLines(denseLines)
	sparse := newRegistry(denseLines, false)
	if !dense.dense {
		t.Fatal("test geometry did not select the dense representation")
	}

	for step := 0; step < 400; step++ {
		c := randomChallenge(r, 1+r.Intn(12))
		switch step % 3 {
		case 0, 1:
			got, want := dense.Consume(c), sparse.Consume(c)
			if got != want {
				t.Fatalf("step %d: dense.Consume=%v sparse.Consume=%v for %+v", step, got, want, c.Bits)
			}
		case 2:
			dense.Mark(c.Bits)
			sparse.Mark(c.Bits)
		}
		if d, s := dense.Used(), sparse.Used(); d != s {
			t.Fatalf("step %d: Used diverged: dense=%d sparse=%d", step, d, s)
		}
		// Spot-check membership with fresh draws: burned pairs agree
		// in both orientations.
		probe := randomChallenge(r, 8)
		for _, b := range probe.Bits {
			if d, s := dense.IsUsed(b), sparse.IsUsed(b); d != s {
				t.Fatalf("step %d: IsUsed(%+v) diverged: dense=%v sparse=%v", step, b, d, s)
			}
			flipped := PairBit{A: b.B, B: b.A, VddMV: b.VddMV}
			if d, s := dense.IsUsed(flipped), sparse.IsUsed(flipped); d != s {
				t.Fatalf("step %d: IsUsed(flipped %+v) diverged: dense=%v sparse=%v", step, b, d, s)
			}
		}
	}

	// The encoding is canonical, so the same burned set encodes to the
	// same bytes whichever representation holds it.
	if de, se := dense.AppendEncoded(nil), sparse.AppendEncoded(nil); !bytes.Equal(de, se) {
		t.Fatalf("encodings diverged: dense %d bytes, sparse %d bytes", len(de), len(se))
	}
}

func TestDenseConsumeRollsBackOnCollision(t *testing.T) {
	reg := NewRegistryLines(denseLines)
	if !reg.Consume(&Challenge{Bits: []PairBit{{A: 1, B: 2, VddMV: 680}}}) {
		t.Fatal("first consume refused")
	}
	// Bits 0 and 2 are fresh; bit 1 collides (reversed orientation of
	// the consumed pair). Nothing new may stick.
	c := &Challenge{Bits: []PairBit{
		{A: 3, B: 4, VddMV: 680},
		{A: 2, B: 1, VddMV: 680},
		{A: 5, B: 6, VddMV: 680},
	}}
	if reg.Consume(c) {
		t.Fatal("consume with a replayed pair accepted")
	}
	if reg.IsUsed(PairBit{A: 3, B: 4, VddMV: 680}) {
		t.Fatal("rejected consume leaked its first bit")
	}
	if got := reg.Used(); got != 1 {
		t.Fatalf("Used=%d after rollback, want 1", got)
	}
}

func TestDenseConsumeRejectsInternalDuplicates(t *testing.T) {
	reg := NewRegistryLines(denseLines)
	c := &Challenge{Bits: []PairBit{
		{A: 7, B: 8, VddMV: 680},
		{A: 8, B: 7, VddMV: 680},
	}}
	if reg.Consume(c) {
		t.Fatal("challenge reusing its own pair accepted")
	}
	if got := reg.Used(); got != 0 {
		t.Fatalf("Used=%d after internal-duplicate rejection, want 0", got)
	}
}

func TestDenseOutOfRangeCoordinates(t *testing.T) {
	// Hostile or corrupt input can carry coordinates beyond the
	// geometry. They have no pair index, so neither form can address
	// them: Consume must refuse them without panicking, and Mark
	// (replay path) skips them instead.
	for _, f := range registryForms {
		reg := f.new(denseLines)
		if reg.Consume(&Challenge{Bits: []PairBit{{A: 0, B: denseLines, VddMV: 680}}}) {
			t.Fatalf("%s: out-of-geometry pair consumed", f.name)
		}
		if reg.Consume(&Challenge{Bits: []PairBit{{A: -1, B: 3, VddMV: 680}}}) {
			t.Fatalf("%s: negative coordinate consumed", f.name)
		}
		reg.Mark([]PairBit{{A: 0, B: denseLines, VddMV: 680}, {A: 4, B: 5, VddMV: 680}})
		if got := reg.Used(); got != 1 {
			t.Fatalf("%s: Used=%d after Mark with one out-of-range pair, want 1", f.name, got)
		}
		if reg.IsUsed(PairBit{A: 0, B: denseLines, VddMV: 680}) {
			t.Fatalf("%s: out-of-geometry pair reported used", f.name)
		}
	}
}

func TestDenseExportRestoreRoundTrip(t *testing.T) {
	r := rng.New(7)
	reg := NewRegistryLines(denseLines)
	for i := 0; i < 50; i++ {
		reg.Consume(randomChallenge(r, 1+r.Intn(8)))
	}
	enc := reg.AppendEncoded(nil)
	restored, rest, err := DecodeRegistry(denseLines, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d bytes", len(rest))
	}
	if !restored.dense {
		t.Fatal("restore did not keep the dense representation")
	}
	if got, want := restored.Used(), reg.Used(); got != want {
		t.Fatalf("restored Used=%d, want %d", got, want)
	}
	for _, vdd := range []int{640, 680, 720} {
		for a := 0; a < denseLines; a++ {
			for b := a + 1; b < denseLines; b++ {
				p := PairBit{A: a, B: b, VddMV: vdd}
				if restored.IsUsed(p) != reg.IsUsed(p) {
					t.Fatalf("restored registry disagrees on pair %+v", p)
				}
			}
		}
	}
}
