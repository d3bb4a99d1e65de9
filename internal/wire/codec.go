package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crp"
)

// Payload encodings, all big endian. Every Append* helper appends a
// complete frame (header included) to dst and returns the grown
// slice; with enough capacity in dst none of them allocate. Every
// Decode* helper parses a payload, reusing the caller's destination
// buffers, so the challenge → response → verdict round trip runs
// allocation-free on both sides.

// Codec violations: structurally broken payloads. Transaction-fatal,
// not transport-fatal — the frame itself was well delimited.
var errTruncated = fmt.Errorf("wire: truncated payload")

// AppendClientID appends an opening frame (OpAuthenticate or OpRemap)
// whose payload is the raw client id bytes.
func AppendClientID(dst []byte, stream uint32, op Opcode, id string) []byte {
	dst, off := beginFrame(dst, stream, op)
	dst = append(dst, id...)
	return endFrame(dst, off)
}

// DecodeClientID interprets an opening payload. The returned bytes
// alias the payload; callers needing the id past the frame's life
// must copy (string conversion does).
func DecodeClientID(p []byte) []byte { return p }

// Challenge payload: u64 id, u32 nbits, then nbits × (u32 a, u32 b,
// u32 vdd_mv).

// AppendChallenge appends an OpChallenge frame.
func AppendChallenge(dst []byte, stream uint32, ch *crp.Challenge) []byte {
	dst, off := beginFrame(dst, stream, OpChallenge)
	dst = binary.BigEndian.AppendUint64(dst, ch.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ch.Bits)))
	for i := range ch.Bits {
		b := &ch.Bits[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.A))
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.B))
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.VddMV))
	}
	return endFrame(dst, off)
}

// maxChallengeBits bounds a decoded challenge's bit count so a hostile
// length prefix cannot force a huge allocation; the frame size cap
// already bounds the actual payload.
const maxChallengeBits = 1 << 20

// DecodeChallenge parses an OpChallenge payload into ch, reusing
// ch.Bits capacity.
func DecodeChallenge(p []byte, ch *crp.Challenge) error {
	if len(p) < 12 {
		return errTruncated
	}
	ch.ID = binary.BigEndian.Uint64(p[0:8])
	n := int(binary.BigEndian.Uint32(p[8:12]))
	if n < 0 || n > maxChallengeBits || len(p)-12 != n*12 {
		return fmt.Errorf("wire: challenge claims %d bits in %d payload bytes", n, len(p))
	}
	if cap(ch.Bits) < n {
		ch.Bits = make([]crp.PairBit, n)
	}
	ch.Bits = ch.Bits[:n]
	p = p[12:]
	for i := 0; i < n; i++ {
		ch.Bits[i] = crp.PairBit{
			A:     int(binary.BigEndian.Uint32(p[0:4])),
			B:     int(binary.BigEndian.Uint32(p[4:8])),
			VddMV: int(binary.BigEndian.Uint32(p[8:12])),
		}
		p = p[12:]
	}
	return nil
}

// Response payload: u64 challenge id, u32 bit count, packed bits.

// AppendResponse appends an OpResponse frame.
func AppendResponse(dst []byte, stream uint32, challengeID uint64, resp *crp.Response) []byte {
	dst, off := beginFrame(dst, stream, OpResponse)
	dst = binary.BigEndian.AppendUint64(dst, challengeID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(resp.N))
	dst = append(dst, resp.Bits...)
	return endFrame(dst, off)
}

// DecodeResponse parses an OpResponse payload into resp, reusing
// resp.Bits capacity, and returns the challenge id.
func DecodeResponse(p []byte, resp *crp.Response) (uint64, error) {
	if len(p) < 12 {
		return 0, errTruncated
	}
	id := binary.BigEndian.Uint64(p[0:8])
	n := int(binary.BigEndian.Uint32(p[8:12]))
	nbytes := (n + 7) / 8
	if n < 0 || n > maxChallengeBits || len(p)-12 != nbytes {
		return 0, fmt.Errorf("wire: response claims %d bits in %d payload bytes", n, len(p))
	}
	resp.N = n
	if cap(resp.Bits) < nbytes {
		resp.Bits = make([]byte, nbytes)
	}
	resp.Bits = resp.Bits[:nbytes]
	copy(resp.Bits, p[12:])
	return id, nil
}

// Verdict payload: u8 flags, then a 32-byte confirmation tag when
// flagConfirm is set.

// Verdict is the decoded form of an OpVerdict payload.
type Verdict struct {
	Accepted     bool
	RemapAdvised bool
	// HasConfirm distinguishes an absent tag from a zero tag.
	HasConfirm bool
	// Confirm is HMAC(sessionKey, confirm label), raw bytes.
	Confirm [32]byte
}

const (
	flagAccepted     = 1 << 0
	flagRemapAdvised = 1 << 1
	flagConfirm      = 1 << 2
)

// AppendVerdict appends an OpVerdict frame.
func AppendVerdict(dst []byte, stream uint32, v Verdict) []byte {
	dst, off := beginFrame(dst, stream, OpVerdict)
	var flags byte
	if v.Accepted {
		flags |= flagAccepted
	}
	if v.RemapAdvised {
		flags |= flagRemapAdvised
	}
	if v.HasConfirm {
		flags |= flagConfirm
	}
	dst = append(dst, flags)
	if v.HasConfirm {
		dst = append(dst, v.Confirm[:]...)
	}
	return endFrame(dst, off)
}

// DecodeVerdict parses an OpVerdict payload.
func DecodeVerdict(p []byte) (Verdict, error) {
	if len(p) < 1 {
		return Verdict{}, errTruncated
	}
	v := Verdict{
		Accepted:     p[0]&flagAccepted != 0,
		RemapAdvised: p[0]&flagRemapAdvised != 0,
		HasConfirm:   p[0]&flagConfirm != 0,
	}
	if v.HasConfirm {
		if len(p) != 1+len(v.Confirm) {
			return Verdict{}, errTruncated
		}
		copy(v.Confirm[:], p[1:])
	} else if len(p) != 1 {
		return Verdict{}, errTruncated
	}
	return v, nil
}

// AppendRemapDone appends an OpRemapDone frame (payload: u8 success).
func AppendRemapDone(dst []byte, stream uint32, success bool) []byte {
	dst, off := beginFrame(dst, stream, OpRemapDone)
	var b byte
	if success {
		b = 1
	}
	dst = append(dst, b)
	return endFrame(dst, off)
}

// DecodeRemapDone parses an OpRemapDone payload.
func DecodeRemapDone(p []byte) (bool, error) {
	if len(p) != 1 {
		return false, errTruncated
	}
	return p[0] != 0, nil
}

// AppendRemapAck appends an empty-payload OpRemapAck frame.
func AppendRemapAck(dst []byte, stream uint32) []byte {
	dst, off := beginFrame(dst, stream, OpRemapAck)
	return endFrame(dst, off)
}

// AppendRaw appends a frame whose payload the caller already encoded
// (the remap-challenge JSON body rides in one of these).
func AppendRaw(dst []byte, stream uint32, op Opcode, payload []byte) []byte {
	dst, off := beginFrame(dst, stream, op)
	dst = append(dst, payload...)
	return endFrame(dst, off)
}

// Error payload: u8 code length, code, u16 client length, client,
// remainder message. Codes are the stable ErrorCode strings of the
// auth taxonomy.

// AppendError appends an OpError frame.
func AppendError(dst []byte, stream uint32, code, client, msg string) []byte {
	if len(code) > 0xFF {
		code = code[:0xFF]
	}
	if len(client) > 0xFFFF {
		client = client[:0xFFFF]
	}
	dst, off := beginFrame(dst, stream, OpError)
	dst = append(dst, byte(len(code)))
	dst = append(dst, code...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(client)))
	dst = append(dst, client...)
	dst = append(dst, msg...)
	return endFrame(dst, off)
}

// DecodeError parses an OpError payload. The error path allocates its
// strings — it is off the hot path by definition.
func DecodeError(p []byte) (code, client, msg string, err error) {
	if len(p) < 1 {
		return "", "", "", errTruncated
	}
	cl := int(p[0])
	p = p[1:]
	if len(p) < cl+2 {
		return "", "", "", errTruncated
	}
	code = string(p[:cl])
	p = p[cl:]
	il := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if len(p) < il {
		return "", "", "", errTruncated
	}
	client = string(p[:il])
	msg = string(p[il:])
	return code, client, msg, nil
}
