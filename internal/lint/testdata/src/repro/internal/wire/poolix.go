// Package wire exercises the //lint:ignore lifecycle against the
// flow-sensitive release analyzer: a used suppression of a real leak,
// a stale release directive over clean code, and a locks directive
// that only a locks run may judge. It stands in for the real wire
// package: the release analyzer's pool seeds match GetBuf/PutBuf by
// package path (repro/internal/wire — the segments after
// testdata/src).
package wire

// Buf is the pooled frame buffer.
type Buf struct{ B []byte }

var pool []*Buf

// GetBuf hands out a buffer.
func GetBuf() *Buf {
	if n := len(pool); n > 0 {
		b := pool[n-1]
		pool = pool[:n-1]
		return b
	}
	return &Buf{}
}

// PutBuf returns a buffer to the pool.
func PutBuf(b *Buf) { pool = append(pool, b) }

// Suppressed drops the buffer on the fast path; the directive excuses
// it with a reason, so the finding is swallowed silently.
func Suppressed(fast bool) int {
	//lint:ignore release fixture exercises a sanctioned fast-path drop
	b := GetBuf()
	if fast {
		return 0
	}
	n := len(b.B)
	PutBuf(b)
	return n
}

// Clean owes nothing, which makes its directive stale armor: the
// framework must report the directive itself.
func Clean() {
	//lint:ignore release nothing is reported here, the directive is stale
	b := GetBuf()
	defer PutBuf(b)
}

// Stale locks directive: only a run that includes locks may flag it —
// a release-only pass cannot judge it.
func Quiet() {
	//lint:ignore locks stale directive for an analyzer that may not have run
	x := 1
	_ = x
}
