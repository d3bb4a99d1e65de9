package mapkey

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b ^ byte(i)
	}
	return k
}

func TestPermutationBijective(t *testing.T) {
	for _, n := range []int{2, 3, 16, 100, 257, 4096, 12288} {
		p := NewPermutation(testKey(1), n)
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			m := p.Map(i)
			if m < 0 || m >= n {
				t.Fatalf("n=%d: Map(%d) = %d out of range", n, i, m)
			}
			if seen[m] {
				t.Fatalf("n=%d: Map collision at output %d", n, m)
			}
			seen[m] = true
		}
	}
}

func TestUnmapInvertsMap(t *testing.T) {
	for _, n := range []int{2, 100, 65536} {
		p := NewPermutation(testKey(2), n)
		step := 1
		if n > 1000 {
			step = 97
		}
		for i := 0; i < n; i += step {
			if got := p.Unmap(p.Map(i)); got != i {
				t.Fatalf("n=%d: Unmap(Map(%d)) = %d", n, i, got)
			}
		}
	}
}

func TestInversionProperty(t *testing.T) {
	p := NewPermutation(testKey(3), 50000)
	f := func(x uint16) bool {
		i := int(x) % 50000
		return p.Unmap(p.Map(i)) == i && p.Map(p.Unmap(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeySensitivity(t *testing.T) {
	const n = 10000
	p1 := NewPermutation(testKey(4), n)
	p2 := NewPermutation(testKey(5), n)
	same := 0
	for i := 0; i < 1000; i++ {
		if p1.Map(i) == p2.Map(i) {
			same++
		}
	}
	// Two random permutations agree on a point with prob 1/n.
	if same > 5 {
		t.Fatalf("different keys agreed on %d of 1000 points", same)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := NewPermutation(testKey(6), 12345)
	b := NewPermutation(testKey(6), 12345)
	for i := 0; i < 500; i++ {
		if a.Map(i) != b.Map(i) {
			t.Fatalf("same key/domain diverged at %d", i)
		}
	}
}

func TestMapLooksRandom(t *testing.T) {
	// The permutation should not preserve locality: consecutive inputs
	// should land far apart on average.
	const n = 65536
	p := NewPermutation(testKey(7), n)
	adjacent := 0
	for i := 0; i < 1000; i++ {
		d := p.Map(i) - p.Map(i+1)
		if d < 0 {
			d = -d
		}
		if d < 100 {
			adjacent++
		}
	}
	if adjacent > 20 {
		t.Fatalf("%d of 1000 consecutive pairs mapped within 100", adjacent)
	}
}

func TestPanicsOutOfDomain(t *testing.T) {
	p := NewPermutation(testKey(8), 100)
	for _, bad := range []int{-1, 100, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Map(%d) did not panic", bad)
				}
			}()
			p.Map(bad)
		}()
	}
}

func TestPanicsTinyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("domain 1 accepted")
		}
	}()
	NewPermutation(testKey(9), 1)
}

func TestDomainAccessor(t *testing.T) {
	if d := NewPermutation(testKey(10), 777).Domain(); d != 777 {
		t.Fatalf("Domain = %d", d)
	}
}

func TestKeyFromBytes(t *testing.T) {
	a := KeyFromBytes([]byte("secret"), "x")
	b := KeyFromBytes([]byte("secret"), "x")
	if a != b {
		t.Fatal("not deterministic")
	}
	if a == KeyFromBytes([]byte("secret"), "y") {
		t.Fatal("label ignored")
	}
	if a == KeyFromBytes([]byte("other"), "x") {
		t.Fatal("material ignored")
	}
}

func TestPlaneKeysIndependent(t *testing.T) {
	master := testKey(11)
	if PlaneKey(master, 680) == PlaneKey(master, 700) {
		t.Fatal("plane keys collide across voltages")
	}
	if PlaneKey(master, 680) != PlaneKey(master, 680) {
		t.Fatal("plane key not deterministic")
	}
	if DeriveSubkey(master, "a") == DeriveSubkey(master, "b") {
		t.Fatal("subkeys collide")
	}
}

func BenchmarkMap(b *testing.B) {
	p := NewPermutation(testKey(1), 65536)
	for i := 0; i < b.N; i++ {
		_ = p.Map(i & 0xffff)
	}
}

// permutationDigests hashes Map and Unmap over the whole domain, each
// index as a little-endian u32, so a golden digest pins every point of
// the permutation.
func permutationDigests(p *Permutation) (mapSum, unmapSum string) {
	hm, hu := sha256.New(), sha256.New()
	var b [4]byte
	for i := 0; i < p.Domain(); i++ {
		binary.LittleEndian.PutUint32(b[:], uint32(p.Map(i)))
		hm.Write(b[:])
		binary.LittleEndian.PutUint32(b[:], uint32(p.Unmap(i)))
		hu.Write(b[:])
	}
	return hex.EncodeToString(hm.Sum(nil)), hex.EncodeToString(hu.Sum(nil))
}

// TestPermutationGolden pins the logical layout a key gives a device:
// the digests were recorded from the per-entry HMAC round tables, so
// any change to how the tables are built that moves a single index
// fails here. The domains include non-powers of four, which exercise
// cycle walking.
func TestPermutationGolden(t *testing.T) {
	for _, tc := range []struct {
		key           Key
		n             int
		mapSum, unSum string
	}{
		{testKey(1), 2,
			"01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
			"01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d"},
		{testKey(1), 1000,
			"f73b7cb46c0842291daf13ab5f7ed30501fa8e307aa26f23f237fadc0bb3c7db",
			"96b3696d49609c3fd02833def8e00894188ee9e9563b039aee7d4b83cb05027c"},
		{testKey(2), 4096,
			"e7e9b96576e7d30242b0b6b56ac9f9b0cfabc939316cdca0abfd6a0ff43fde30",
			"e45cc91c353f681f19289e156edd7fd4dadd7d92de1cc4a94d41dc895252e944"},
		{testKey(3), 16384,
			"171fa1e428db23f79c653d49139f20827afe212c94ddf0cea8ec08b55f85fd1a",
			"773311bb4b2c7d281d90a733f0aa44d29f0732ea6e80225ec8569fd18bc3ee5e"},
		{testKey(4), 70001,
			"b4f7abbf50d1ce7f2884381c4704be39e914ab360733d80274782f6b7a77da72",
			"813992e1f11ff2bf63067b32049b4e4e099118b1daeb65cfc7e64e8fa47b5bb8"},
		{PlaneKey(KeyFromBytes([]byte("golden"), "remap/dev-0"), 680), 16384,
			"1739992dae03635d06e790f15ec80a7cba97891bf28fc0545845efa9c36e60a2",
			"47806dd346774943fb77fc8f3bbc0f701f1635fef03acc82852b2ef98f821f06"},
	} {
		m, u := permutationDigests(NewPermutation(tc.key, tc.n))
		if m != tc.mapSum || u != tc.unSum {
			t.Errorf("n=%d key %x…: digests map %s unmap %s, want %s %s", tc.n, tc.key[:4], m, u, tc.mapSum, tc.unSum)
		}
	}
}

// BenchmarkPermutationTables measures what a key update costs one
// plane's permutation: the four round tables, built on first use.
func BenchmarkPermutationTables(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = NewPermutation(testKey(byte(i)), n).Map(0)
			}
		})
	}
}
