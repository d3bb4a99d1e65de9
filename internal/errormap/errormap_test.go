package errormap

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGeometrySquare(t *testing.T) {
	g := NewGeometry(65536)
	if g.Width != 256 || g.Height() != 256 {
		t.Fatalf("geometry = %dx%d, want 256x256", g.Width, g.Height())
	}
}

func TestGeometryPartialLastRow(t *testing.T) {
	g := NewGeometry(12288) // 768 KB cache
	if g.Width != 111 {
		t.Fatalf("width = %d, want 111", g.Width)
	}
	if g.Height() != 111 {
		t.Fatalf("height = %d", g.Height())
	}
	// Last cell of the populated area round-trips; beyond it does not.
	c := g.Coord(12287)
	if l, ok := g.Line(c); !ok || l != 12287 {
		t.Fatalf("round trip failed: %v %v", l, ok)
	}
	if g.Contains(Coord{X: 110, Y: 110}) {
		t.Fatal("cell beyond populated area reported contained")
	}
}

func TestCoordRoundTripProperty(t *testing.T) {
	g := NewGeometry(10007) // awkward non-square size
	f := func(l uint16) bool {
		line := int(l) % g.Lines
		got, ok := g.Line(g.Coord(line))
		return ok && got == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{1, 2}, Coord{4, 6}, 7},
		{Coord{5, 5}, Coord{2, 9}, 7},
		{Coord{-3, 0}, Coord{3, 0}, 6},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Manhattan(c.b, c.a); got != c.want {
			t.Errorf("Manhattan not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestPlaneSetGet(t *testing.T) {
	p := NewPlane(NewGeometry(1000))
	if p.ErrorCount() != 0 {
		t.Fatal("fresh plane has errors")
	}
	p.Set(5, true)
	p.Set(999, true)
	p.Set(5, true) // idempotent
	if !p.Get(5) || !p.Get(999) || p.Get(6) {
		t.Fatal("Get/Set broken")
	}
	if p.ErrorCount() != 2 {
		t.Fatalf("count = %d", p.ErrorCount())
	}
	p.Set(5, false)
	if p.Get(5) || p.ErrorCount() != 1 {
		t.Fatal("clear broken")
	}
}

func TestPlaneErrorsSorted(t *testing.T) {
	p := NewPlane(NewGeometry(500))
	for _, l := range []int{400, 3, 77, 255} {
		p.Set(l, true)
	}
	got := p.Errors()
	want := []int{3, 77, 255, 400}
	if len(got) != len(want) {
		t.Fatalf("errors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("errors = %v, want %v", got, want)
		}
	}
}

func TestRandomPlaneExactCount(t *testing.T) {
	r := rng.New(1)
	g := NewGeometry(4096)
	for _, k := range []int{0, 1, 100, 4096} {
		p := RandomPlane(g, k, r)
		if p.ErrorCount() != k {
			t.Fatalf("k=%d: count = %d", k, p.ErrorCount())
		}
		if len(p.Errors()) != k {
			t.Fatalf("k=%d: %d listed errors", k, len(p.Errors()))
		}
	}
}

func TestCloneEqualDiff(t *testing.T) {
	r := rng.New(2)
	p := RandomPlane(NewGeometry(2048), 50, r)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	if p.DiffCount(q) != 0 {
		t.Fatal("clone diff nonzero")
	}
	// Mutating the clone must not affect the original.
	free := 0
	for !q.Get(free) {
		free++
	}
	q.Set(free, false)
	if p.Equal(q) || !p.Get(free) {
		t.Fatal("clone shares storage with original")
	}
	if p.DiffCount(q) != 1 {
		t.Fatalf("diff = %d, want 1", p.DiffCount(q))
	}
}

func TestRingSearchMatchesBruteForce(t *testing.T) {
	r := rng.New(3)
	g := NewGeometry(900) // 30x30
	for trial := 0; trial < 20; trial++ {
		p := RandomPlane(g, 5+trial, r)
		errs := p.Errors()
		for probe := 0; probe < 50; probe++ {
			line := r.Intn(g.Lines)
			c := g.Coord(line)
			// brute force
			best := math.MaxInt32
			for _, e := range errs {
				if d := Manhattan(c, g.Coord(e)); d < best {
					best = d
				}
			}
			dist, found, probes := p.RingSearch(c)
			if !found {
				t.Fatalf("trial %d: error not found", trial)
			}
			if dist != best {
				t.Fatalf("trial %d line %d: ring %d vs brute %d", trial, line, dist, best)
			}
			if probes <= 0 {
				t.Fatalf("probes = %d", probes)
			}
		}
	}
}

func TestRingSearchSelfError(t *testing.T) {
	g := NewGeometry(100)
	p := NewPlane(g)
	p.Set(55, true)
	dist, found, probes := p.RingSearch(g.Coord(55))
	if !found || dist != 0 || probes != 1 {
		t.Fatalf("self search = (%d,%v,%d)", dist, found, probes)
	}
}

func TestRingSearchEmptyPlane(t *testing.T) {
	p := NewPlane(NewGeometry(64))
	_, found, _ := p.RingSearch(Coord{0, 0})
	if found {
		t.Fatal("found an error in an empty plane")
	}
}

func TestRingProbeCountGrowsWithSparsity(t *testing.T) {
	r := rng.New(4)
	g := NewGeometry(65536)
	dense := RandomPlane(g, 100, r)
	sparse := RandomPlane(g, 20, r)
	var pd, ps int
	for i := 0; i < 200; i++ {
		c := g.Coord(r.Intn(g.Lines))
		_, _, a := dense.RingSearch(c)
		_, _, b := sparse.RingSearch(c)
		pd += a
		ps += b
	}
	if ps <= pd {
		t.Fatalf("sparse map should need more probes: dense=%d sparse=%d", pd, ps)
	}
}

func TestVisitRingCellsExactlyOnce(t *testing.T) {
	for r := 0; r <= 5; r++ {
		seen := map[Coord]int{}
		visitRing(Coord{10, 10}, r, func(c Coord) { seen[c]++ })
		wantCells := 4 * r
		if r == 0 {
			wantCells = 1
		}
		if len(seen) != wantCells {
			t.Fatalf("r=%d: %d distinct cells, want %d", r, len(seen), wantCells)
		}
		for c, n := range seen {
			if n != 1 {
				t.Fatalf("r=%d: cell %v visited %d times", r, c, n)
			}
			if Manhattan(c, Coord{10, 10}) != r {
				t.Fatalf("r=%d: cell %v at wrong distance", r, c)
			}
		}
	}
}

func TestVisitRingClockwiseFromNorth(t *testing.T) {
	var order []Coord
	visitRing(Coord{0, 0}, 1, func(c Coord) { order = append(order, c) })
	want := []Coord{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ring order = %v, want %v", order, want)
		}
	}
}

func TestDistanceTransformMatchesRingSearch(t *testing.T) {
	r := rng.New(5)
	g := NewGeometry(2500)
	p := RandomPlane(g, 12, r)
	df := p.DistanceTransform()
	for line := 0; line < g.Lines; line += 7 {
		c := g.Coord(line)
		want, _, _ := p.RingSearch(c)
		if got := df.Dist(c); got != want {
			t.Fatalf("line %d: df %d vs ring %d", line, got, want)
		}
		if got := df.DistLine(line); got != want {
			t.Fatalf("line %d: DistLine %d vs %d", line, got, want)
		}
	}
}

// TestDistanceTransformMatchesBruteForce checks every line of random
// planes against the brute-force nearest-error Manhattan distance,
// over near-square and arbitrary widths (some wider than the plane
// has lines), most of them with a partial last row.
func TestDistanceTransformMatchesBruteForce(t *testing.T) {
	r := rng.New(11)
	partial := 0
	for trial := 0; trial < 400; trial++ {
		lines := 1 + r.Intn(1500)
		g := NewGeometry(lines)
		if trial%2 == 1 {
			g.Width = 1 + r.Intn(lines+8)
		}
		if g.Lines%g.Width != 0 {
			partial++
		}
		p := RandomPlane(g, 1+r.Intn(min(lines, 12)), r)
		errs := p.Errors()
		df := p.DistanceTransform()
		for line := 0; line < lines; line++ {
			c := g.Coord(line)
			want := math.MaxInt
			for _, e := range errs {
				want = min(want, Manhattan(c, g.Coord(e)))
			}
			if got := df.DistLine(line); got != want {
				t.Fatalf("trial %d, %d lines, width %d, %d errors: line %d at %d, want %d",
					trial, lines, g.Width, len(errs), line, got, want)
			}
		}
	}
	if partial < 200 {
		t.Fatalf("only %d of 400 geometries had a partial last row", partial)
	}
}

func TestDistanceTransformEmptyPlane(t *testing.T) {
	if df := NewPlane(NewGeometry(64)).DistanceTransform(); df != nil {
		t.Fatal("empty plane should have nil distance field")
	}
}

// Figure 15 anchor: the mean nearest-error distance of k random errors
// in an n-cell near-square plane is ≈ √(π·n/(8k)).
func TestMeanDistanceMatchesTheory(t *testing.T) {
	r := rng.New(6)
	g := NewGeometry(65536)
	for _, k := range []int{10, 50, 100} {
		var mean float64
		const trials = 5
		for i := 0; i < trials; i++ {
			mean += RandomPlane(g, k, r).DistanceTransform().Mean()
		}
		mean /= trials
		theory := math.Sqrt(math.Pi * float64(g.Lines) / (8 * float64(k)))
		if mean < theory*0.75 || mean > theory*1.35 {
			t.Fatalf("k=%d: mean %v vs theory %v", k, mean, theory)
		}
	}
}

func TestPlaneSerializationRoundTrip(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{64, 1000, 12288} {
		p := RandomPlane(NewGeometry(n), n/50, r)
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var q Plane
		if err := q.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestPlaneUnmarshalRejectsGarbage(t *testing.T) {
	var p Plane
	if err := p.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if err := p.UnmarshalBinary(make([]byte, 16)); err == nil {
		t.Fatal("zero magic accepted")
	}
	good, _ := RandomPlane(NewGeometry(100), 3, rng.New(8)).MarshalBinary()
	if err := p.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] |= 0x80 // stray bit beyond line count (100 % 64 = 36)
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Fatal("stray bits accepted")
	}
}

func TestMapPlanes(t *testing.T) {
	g := NewGeometry(1024)
	m := NewMap(g)
	r := rng.New(9)
	m.AddPlane(680, RandomPlane(g, 10, r))
	m.AddPlane(700, RandomPlane(g, 5, r))
	m.AddPlane(660, RandomPlane(g, 20, r))
	vs := m.Voltages()
	if len(vs) != 3 || vs[0] != 660 || vs[2] != 700 {
		t.Fatalf("voltages = %v", vs)
	}
	if m.Plane(680) == nil || m.Plane(999) != nil {
		t.Fatal("Plane lookup broken")
	}
	if m.TotalErrors() != 35 {
		t.Fatalf("total errors = %d", m.TotalErrors())
	}
	c := m.Clone()
	free := 0
	for c.Plane(680).Get(free) {
		free++
	}
	c.Plane(680).Set(free, true)
	if m.Plane(680).Get(free) {
		t.Fatal("map clone shares planes")
	}
}

func TestMapSerializationRoundTrip(t *testing.T) {
	g := NewGeometry(4096)
	m := NewMap(g)
	r := rng.New(10)
	m.AddPlane(690, RandomPlane(g, 30, r))
	m.AddPlane(670, RandomPlane(g, 60, r))
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Voltages()) != 2 {
		t.Fatalf("voltages = %v", got.Voltages())
	}
	for _, v := range []int{670, 690} {
		if !got.Plane(v).Equal(m.Plane(v)) {
			t.Fatalf("plane %d mismatch", v)
		}
	}
	if _, err := UnmarshalMap(data[:10]); err == nil {
		t.Fatal("truncated map accepted")
	}
	if _, err := UnmarshalMap(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func BenchmarkDistanceTransform4MB(b *testing.B) {
	r := rng.New(1)
	p := RandomPlane(NewGeometry(65536), 100, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.DistanceTransform()
	}
}

func BenchmarkDistanceTransform(b *testing.B) {
	for _, lines := range []int{4096, 16384} {
		p := RandomPlane(NewGeometry(lines), 100, rng.New(1))
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.DistanceTransform()
			}
		})
	}
}

func BenchmarkRingSearch(b *testing.B) {
	r := rng.New(1)
	g := NewGeometry(65536)
	p := RandomPlane(g, 100, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Coord(r.Intn(g.Lines))
		_, _, _ = p.RingSearch(c)
	}
}
