// Package plainpkg grows byte slices with Append* helpers but never
// opens a frame: the codec rules must not mistake it for a codec.
package plainpkg

import "encoding/binary"

// AppendHeader writes a fixed header. No decoder exists, and none is
// owed: this is not a framed codec.
func AppendHeader(dst []byte, v uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v)
	return dst
}
