package crp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
)

// burnRandom consumes count random challenges of up to eight bits on
// three planes of an n-line geometry.
func burnRandom(reg *Registry, lines, count int, seed uint64) {
	r := rng.New(seed)
	vdds := []int{640, 680, 720}
	for i := 0; i < count; i++ {
		c := &Challenge{Bits: make([]PairBit, 1+r.Intn(8))}
		for j := range c.Bits {
			a, b := r.Intn(lines), r.Intn(lines)
			for b == a {
				b = r.Intn(lines)
			}
			c.Bits[j] = PairBit{A: a, B: b, VddMV: vdds[r.Intn(len(vdds))]}
		}
		reg.Consume(c)
	}
}

// TestRegistryCodecRoundTrip encodes a dense and a sparse geometry's
// registry, decodes it, and checks the burned set, the representation
// and the bytes after the block.
func TestRegistryCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		lines int
		dense bool
	}{{denseLines, true}, {16384, false}} {
		reg := NewRegistryLines(tc.lines)
		burnRandom(reg, tc.lines, 400, uint64(tc.lines))
		enc := reg.AppendEncoded([]byte("head"))
		if string(enc[:4]) != "head" {
			t.Fatalf("%d lines: AppendEncoded overwrote dst", tc.lines)
		}
		got, rest, err := DecodeRegistry(tc.lines, append(enc[4:], "tail"...))
		if err != nil {
			t.Fatalf("%d lines: %v", tc.lines, err)
		}
		if string(rest) != "tail" {
			t.Fatalf("%d lines: decode left %q, want the trailing bytes", tc.lines, rest)
		}
		if got.dense != tc.dense {
			t.Fatalf("%d lines: decoded dense=%v, want %v", tc.lines, got.dense, tc.dense)
		}
		if got.Used() != reg.Used() || got.Used() == 0 {
			t.Fatalf("%d lines: decoded Used=%d, want %d", tc.lines, got.Used(), reg.Used())
		}
		if again := got.AppendEncoded(nil); !bytes.Equal(again, enc[4:]) {
			t.Fatalf("%d lines: re-encoding differs", tc.lines)
		}
	}
}

// TestRegistryCodecMatchesIsUsed compares the decoded registry with
// the original on every pair of a small geometry, in both
// orientations, on every burned plane and one never touched, for
// both representations.
func TestRegistryCodecMatchesIsUsed(t *testing.T) {
	const lines = 40
	for _, f := range registryForms {
		reg := f.new(lines)
		burnRandom(reg, lines, 60, 3)
		got, _, err := DecodeRegistry(lines, reg.AppendEncoded(nil))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for _, vdd := range []int{640, 680, 720, 760} {
			for a := 0; a < lines; a++ {
				for b := 0; b < lines; b++ {
					p := PairBit{A: a, B: b, VddMV: vdd}
					if got.IsUsed(p) != reg.IsUsed(p) {
						t.Fatalf("%s: decoded registry disagrees on %+v", f.name, p)
					}
				}
			}
		}
	}
}

func TestRegistryCodecEmpty(t *testing.T) {
	reg := NewRegistryLines(denseLines)
	// A rolled-back Consume allocates a plane and leaves it empty.
	reg.Consume(&Challenge{Bits: []PairBit{{A: 1, B: 2, VddMV: 680}, {A: 2, B: 1, VddMV: 680}}})
	enc := reg.AppendEncoded(nil)
	if !bytes.Equal(enc, []byte{0}) {
		t.Fatalf("empty registry encodes as %x, want 00", enc)
	}
	got, rest, err := DecodeRegistry(denseLines, enc)
	if err != nil || len(rest) != 0 || got.Used() != 0 {
		t.Fatalf("decode empty: rest=%d err=%v", len(rest), err)
	}
}

// block assembles a registry encoding field by field: u appends a
// uvarint, s a varint.
type block []byte

func (b block) u(v uint64) block { return binary.AppendUvarint(b, v) }
func (b block) s(v int64) block  { return binary.AppendVarint(b, v) }

func TestRegistryCodecRejectsMalformed(t *testing.T) {
	const lines = 10 // 45 pairs
	valid := NewRegistryLines(lines)
	burnRandom(valid, lines, 10, 5)
	enc := valid.AppendEncoded(nil)
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeRegistry(lines, enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
		}
	}
	cases := map[string][]byte{
		"planes beyond the bytes": block{}.u(1000).s(680).u(1).u(0),
		"pairs beyond the bytes":  block{}.u(1).s(680).u(1000).u(0).u(0).u(0),
		"index out of range":      block{}.u(1).s(680).u(1).u(45),
		"gap past the end":        block{}.u(1).s(680).u(2).u(44).u(0),
		"gap that overflows":      block{}.u(1).s(680).u(2).u(3).u(math.MaxUint64),
		"duplicate plane":         block{}.u(2).s(680).u(1).u(0).s(680).u(1).u(1),
		"planes out of order":     block{}.u(2).s(700).u(1).u(0).s(680).u(1).u(1),
		"empty plane":             block{}.u(2).s(680).u(0).s(700).u(1).u(0),
		"overlong varint":         bytes.Repeat([]byte{0xff}, 11),
	}
	for name, b := range cases {
		if _, _, err := DecodeRegistry(lines, b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A geometry with no pairs accepts only the empty registry.
	if _, _, err := DecodeRegistry(1, block{}.u(1).s(680).u(1).u(0)); err == nil {
		t.Error("pair in a one-line geometry accepted")
	}
}

// FuzzDecodeRegistry: arbitrary bytes decode to an error or to a
// registry whose canonical encoding decodes back to itself.
func FuzzDecodeRegistry(f *testing.F) {
	reg := NewRegistryLines(denseLines)
	burnRandom(reg, denseLines, 20, 9)
	f.Add(reg.AppendEncoded(nil), denseLines)
	f.Add([]byte{0}, 16384)
	f.Add([]byte(block{}.u(1).s(680).u(2).u(7).u(0)), 16384)
	f.Fuzz(func(t *testing.T, data []byte, lines int) {
		if lines < 0 || lines > 1<<16 {
			return
		}
		got, _, err := DecodeRegistry(lines, data)
		if err != nil {
			return
		}
		enc := got.AppendEncoded(nil)
		again, rest, err := DecodeRegistry(lines, enc)
		if err != nil || len(rest) != 0 || again.Used() != got.Used() {
			t.Fatalf("canonical re-encoding does not round-trip: err=%v rest=%d", err, len(rest))
		}
		if !bytes.Equal(again.AppendEncoded(nil), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
