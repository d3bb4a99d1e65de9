// Package codecfix exercises the codec rules end to end:
// encoder/decoder pairing, field-sequence symmetry, and drift against
// the payload column of the pinned opcode table in table.md. The
// table lists every opcode, so the record-table rule stays silent.
package codecfix

import "encoding/binary"

//lint:recordtable table.md#opcodes type=Opcode prefix=Op

// Opcode discriminates frames.
type Opcode uint8

// The fixture opcodes.
const (
	OpPing  Opcode = 1
	OpData  Opcode = 2
	OpVec   Opcode = 3
	OpDrift Opcode = 4
	OpBad   Opcode = 5
	OpLost  Opcode = 6
	OpNoRow Opcode = 7
)

func beginFrame(dst []byte, stream uint32, op Opcode) ([]byte, int) {
	return append(dst, byte(op)), len(dst)
}

// AppendPing / DecodePing agree with each other and with the table.
func AppendPing(dst []byte, stream uint32, v uint32) []byte {
	dst, _ = beginFrame(dst, stream, OpPing)
	dst = binary.BigEndian.AppendUint32(dst, v)
	return dst
}

func DecodePing(p []byte) uint32 {
	return binary.BigEndian.Uint32(p)
}

// AppendData emits u32+bytes; DecodeData reads the count at the wrong
// width.
func AppendData(dst []byte, stream uint32, n uint32, body []byte) []byte { // want "codec asymmetry: AppendData emits .u32 bytes. but DecodeData consumes .u64 bytes."
	dst, _ = beginFrame(dst, stream, OpData)
	dst = binary.BigEndian.AppendUint32(dst, n)
	dst = append(dst, body...)
	return dst
}

func DecodeData(p []byte) (uint64, []byte) {
	n := binary.BigEndian.Uint64(p)
	return n, p[8:]
}

// AppendVec / DecodeVec agree, including the repeated group.
func AppendVec(dst []byte, stream uint32, id uint64, items []uint32) []byte {
	dst, _ = beginFrame(dst, stream, OpVec)
	dst = binary.BigEndian.AppendUint64(dst, id)
	for _, it := range items {
		dst = binary.BigEndian.AppendUint32(dst, it)
		dst = binary.BigEndian.AppendUint32(dst, it+1)
	}
	return dst
}

func DecodeVec(p []byte) (uint64, []uint32) {
	id := binary.BigEndian.Uint64(p)
	p = p[8:]
	var out []uint32
	for len(p) >= 8 {
		a := binary.BigEndian.Uint32(p)
		b := binary.BigEndian.Uint32(p[4:])
		out = append(out, a, b)
		p = p[8:]
	}
	return id, out
}

// AppendDrift and DecodeDrift agree with each other but not with the
// pinned table, which still documents a u16.
func AppendDrift(dst []byte, stream uint32, v uint32) []byte { // want "payload drift: AppendDrift emits .u32. but the pinned opcode table documents .drift. as .u16."
	dst, _ = beginFrame(dst, stream, OpDrift)
	dst = binary.BigEndian.AppendUint32(dst, v)
	return dst
}

func DecodeDrift(p []byte) uint32 {
	return binary.BigEndian.Uint32(p)
}

// AppendBad's table row does not parse as a payload grammar.
func AppendBad(dst []byte, stream uint32, flag byte) []byte { // want "opcode table payload cell for .bad. does not parse"
	dst, _ = beginFrame(dst, stream, OpBad)
	dst = append(dst, flag)
	return dst
}

func DecodeBad(p []byte) byte {
	return p[0]
}

// AppendLost has no decoder at all: its payload can never be read
// back.
func AppendLost(dst []byte, stream uint32, v uint16) []byte { // want "encoder AppendLost .opcode OpLost. has no DecodeLost counterpart"
	dst, _ = beginFrame(dst, stream, OpLost)
	dst = binary.BigEndian.AppendUint16(dst, v)
	return dst
}

// AppendNoRow round-trips fine, but its table row has no payload
// cell.
func AppendNoRow(dst []byte, stream uint32, v uint32) []byte { // want "opcode OpNoRow has no payload row .no_row. in the pinned opcode table"
	dst, _ = beginFrame(dst, stream, OpNoRow)
	dst = binary.BigEndian.AppendUint32(dst, v)
	return dst
}

func DecodeNoRow(p []byte) uint32 {
	return binary.BigEndian.Uint32(p)
}
