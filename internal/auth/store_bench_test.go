package auth

import (
	"bytes"
	"testing"

	"repro/internal/crp"
	"repro/internal/mapkey"
	"repro/internal/rng"
)

// largeStateServer enrolls one 16384-line device (the authd default
// geometry, a sparse registry) and burns about 1.1 M distinct pairs
// on it: the state at which a JSON snapshot outgrew the replication
// frame cap.
func largeStateServer(tb testing.TB) *Server {
	tb.Helper()
	const lines = 16384
	mb, err := testMap(tb, lines, 100, 9, 680).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(DefaultConfig(), 1)
	if err := srv.ReplayEnroll("dev-0", mb, mapkey.Key{1}, nil); err != nil {
		tb.Fatal(err)
	}
	r := rng.New(10)
	pairs := make([]crp.PairBit, 1_150_000)
	for i := range pairs {
		a, b := r.Intn(lines), r.Intn(lines)
		for b == a {
			b = r.Intn(lines)
		}
		pairs[i] = crp.PairBit{A: a, B: b, VddMV: 680}
	}
	if err := srv.ReplayBurn("dev-0", pairs, 4500, len(pairs)); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// BenchmarkSaveStateLarge and BenchmarkLoadStateLarge time one save
// and one load of largeStateServer's database; state_MiB is the
// snapshot's size.
func BenchmarkSaveStateLarge(b *testing.B) {
	srv := largeStateServer(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := srv.SaveState(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/(1<<20), "state_MiB")
}

func BenchmarkLoadStateLarge(b *testing.B) {
	var buf bytes.Buffer
	if err := largeStateServer(b).SaveState(&buf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewServer(DefaultConfig(), 2).LoadState(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/(1<<20), "state_MiB")
}
