// Package wire stands in for the repo's buffer pool: the release
// analyzer's pool seeds match wire.GetBuf and wire.PutBuf by import
// path, which is why this fixture module is named repro.
package wire

// Buf is a pooled frame buffer.
type Buf struct{ B []byte }

var free []*Buf

// GetBuf hands out a buffer.
func GetBuf() *Buf {
	if n := len(free); n > 0 {
		b := free[n-1]
		free = free[:n-1]
		return b
	}
	return &Buf{}
}

// PutBuf returns a buffer to the pool.
func PutBuf(b *Buf) { free = append(free, b) }
