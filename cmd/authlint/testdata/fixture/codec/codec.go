// Package codec seeds exactly one codec-symmetry violation: the Ping
// encoder emits a u32 body that its decoder reads back as a u64.
package codec

import "encoding/binary"

// Opcode discriminates frames.
type Opcode uint8

// OpPing is the only opcode.
const OpPing Opcode = 1

func beginFrame(dst []byte, stream uint32, op Opcode) ([]byte, int) {
	return append(dst, byte(op)), len(dst)
}

// AppendPing frames one ping probe.
func AppendPing(dst []byte, stream uint32, seq uint32) []byte {
	dst, _ = beginFrame(dst, stream, OpPing)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	return dst
}

// DecodePing reads the probe back — at the wrong width.
func DecodePing(p []byte) uint64 {
	return binary.BigEndian.Uint64(p)
}
