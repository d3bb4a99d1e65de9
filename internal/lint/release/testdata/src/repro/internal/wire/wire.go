// Package wire is a fixture standing in for the real wire package:
// the release analyzer's pool seeds match GetBuf/PutBuf by package
// path (repro/internal/wire — the segments after testdata/src), so the
// violations below exercise the built-in seeds without importing the
// real module.
package wire

import "errors"

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

// Leak skips the put on the early-return path.
func Leak(fast bool) {
	b := GetBuf() // want "pooled buffer from wire.GetBuf \"b\" is not returned to the pool on every path on the path via fast"
	if fast {
		return
	}
	PutBuf(b)
}

// Double puts the same buffer back twice.
func Double() {
	b := GetBuf()
	PutBuf(b)
	PutBuf(b) // want "\"b\" is put back twice"
}

// UseAfter touches the buffer after it went back to the pool.
func UseAfter() int {
	b := GetBuf()
	PutBuf(b)
	return len(b.B) // want "use of \"b\" after it was returned to the pool"
}

// Discard drops the handed-out buffer on the floor.
func Discard() {
	GetBuf() // want "result of pooled buffer from wire.GetBuf is discarded"
}

// Reassign overwrites the live buffer, orphaning it.
func Reassign() {
	b := GetBuf()
	b = GetBuf() // want "\"b\" is overwritten while still holding an unreleased"
	PutBuf(b)
}

// fresh transfers ownership to its caller: no finding here, but the
// constructor summary makes callers responsible.
func fresh() *Buf {
	b := GetBuf()
	b.B = b.B[:0]
	return b
}

// CallerLeak owns fresh's result and loses it on one branch.
func CallerLeak(fast bool) {
	b := fresh() // want "\"b\" is not returned to the pool on every path"
	if fast {
		return
	}
	PutBuf(b)
}

// DeferOK covers every exit — error return and panic alike — with one
// armed put.
func DeferOK(fail bool) error {
	b := GetBuf()
	defer PutBuf(b)
	if fail {
		return errors.New("short write")
	}
	b.B = append(b.B, 1)
	return nil
}

// ErrNilOK relies on the error convention: on the err != nil branch
// the buffer is nil by construction and owes nothing.
func ErrNilOK(ok bool) error {
	b, err := tryGet(ok)
	if err != nil {
		return err
	}
	PutBuf(b)
	return nil
}

func tryGet(ok bool) (*Buf, error) {
	if !ok {
		return nil, errors.New("pool drained")
	}
	return GetBuf(), nil
}

// frame consumes the buffer: storing it in a composite transfers
// ownership to the frame's owner.
type frame struct{ buf *Buf }

func hold(b *Buf) *frame { return &frame{buf: b} }

// TransferOK hands the buffer to a frame; the escape is the release.
func TransferOK() *frame {
	b := GetBuf()
	return hold(b)
}
