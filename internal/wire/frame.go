// Package wire is the versioned binary framing of the Authenticache
// TCP transport (framing version 2). It owns exactly the codec layer:
// frame headers, opcode payload encodings, and the pooled buffers that
// make the challenge/response/verdict path allocation-free. Connection
// state machines (demultiplexing, per-stream transactions, retries)
// live in internal/auth; this package never touches a socket beyond
// reading and writing bytes.
//
// A connection opens with a 4-byte preamble and then carries frames,
// each a fixed 11-byte header followed by the payload:
//
//	offset 0   magic     0xA7
//	offset 1   version   0x02
//	offset 2-5 stream id uint32, big endian
//	offset 6   opcode    one of the Op* constants
//	offset 7-10 length   payload byte count, uint32 big endian
//
// Frames of different streams interleave freely; within one stream
// frames are ordered. There is no frame checksum: TCP already
// provides integrity.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode discriminates frame payloads. The values are pinned by the
// opcode table in docs/PROTOCOL.md (cross-checked by the authlint
// recordtable analyzer — drift between these constants and the doc
// fails lint).
type Opcode uint8

//lint:recordtable ../../docs/PROTOCOL.md#framing-v2-opcode-table type=Opcode prefix=Op
const (
	// OpAuthenticate opens an authentication transaction (payload:
	// raw client id bytes).
	OpAuthenticate Opcode = 1
	// OpChallenge carries the server's challenge.
	OpChallenge Opcode = 2
	// OpResponse carries the client's packed response bits.
	OpResponse Opcode = 3
	// OpVerdict closes an authentication transaction.
	OpVerdict Opcode = 4
	// OpRemap opens a key-update transaction (payload: client id).
	OpRemap Opcode = 5
	// OpRemapChallenge carries the reserved-plane challenge plus
	// helper data (JSON payload; the key-update path is cold).
	OpRemapChallenge Opcode = 6
	// OpRemapDone reports the client's key-derivation outcome.
	OpRemapDone Opcode = 7
	// OpRemapAck closes a key-update transaction.
	OpRemapAck Opcode = 8
	// OpError reports a typed failure on one stream.
	OpError Opcode = 9
	// OpRepHello opens a replication session (follower → primary:
	// node index and current term). Replication opcodes are spoken
	// only on the dedicated replication listener; the client-facing
	// demultiplexer answers them with invalid_request.
	OpRepHello Opcode = 10
	// OpRepSnapshot carries the catch-up state snapshot (primary →
	// follower: term, snapshot sequence, serialized state).
	OpRepSnapshot Opcode = 11
	// OpRepRecord ships one committed WAL frame (primary → follower:
	// sequence number plus the verbatim on-disk frame bytes).
	OpRepRecord Opcode = 12
	// OpRepAck acknowledges durable application of every record up to
	// a sequence number (follower → primary).
	OpRepAck Opcode = 13
	// OpRepHeartbeat renews the primary's lease and advertises its
	// commit sequence for lag accounting (primary → follower).
	OpRepHeartbeat Opcode = 14
	// OpRepPropose asks the primary to consume and journal the pairs
	// of a follower-sampled challenge (follower → primary).
	OpRepPropose Opcode = 15
	// OpRepGrant returns the primary-assigned challenge id for an
	// accepted proposal (primary → follower).
	OpRepGrant Opcode = 16
	// OpProbe asks a node for a liveness/health report (empty
	// payload). Unlike the rep_* opcodes it is spoken on the
	// client-facing port: routers probe the same address they forward
	// to, so the probe measures exactly the path client traffic takes.
	OpProbe Opcode = 17
	// OpHealth answers a probe with the node's replication health:
	// role, term, advertised commit sequence, applied sequence.
	OpHealth Opcode = 18
)

// String names the opcode as docs/PROTOCOL.md spells it.
func (op Opcode) String() string {
	switch op {
	case OpAuthenticate:
		return "authenticate"
	case OpChallenge:
		return "challenge"
	case OpResponse:
		return "response"
	case OpVerdict:
		return "verdict"
	case OpRemap:
		return "remap"
	case OpRemapChallenge:
		return "remap_challenge"
	case OpRemapDone:
		return "remap_done"
	case OpRemapAck:
		return "remap_ack"
	case OpError:
		return "error"
	case OpRepHello:
		return "rep_hello"
	case OpRepSnapshot:
		return "rep_snapshot"
	case OpRepRecord:
		return "rep_record"
	case OpRepAck:
		return "rep_ack"
	case OpRepHeartbeat:
		return "rep_heartbeat"
	case OpRepPropose:
		return "rep_propose"
	case OpRepGrant:
		return "rep_grant"
	case OpProbe:
		return "probe"
	case OpHealth:
		return "health"
	}
	return fmt.Sprintf("wire.Opcode(%d)", uint8(op))
}

const (
	// Magic is the first byte of the preamble and of every frame.
	Magic = 0xA7
	// Version is the framing version this package implements.
	Version = 2
	// HeaderLen is the fixed frame header size.
	HeaderLen = 11
	// PreambleLen is the connection-opening preamble size.
	PreambleLen = 4
)

// Preamble returns the 4-byte connection opener a v2 client sends
// before its first frame: magic, 'C', 'W', version.
func Preamble() [PreambleLen]byte {
	return [PreambleLen]byte{Magic, 'C', 'W', Version}
}

// Framing violations. These are transport-fatal: a peer whose framing
// is broken cannot be answered in a framing it will understand.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported frame version")
	ErrOversize   = errors.New("wire: frame payload exceeds cap")
)

// Header is one parsed frame header.
type Header struct {
	Stream uint32
	Op     Opcode
	Len    int
}

// putHeader writes a header into an 11-byte slice.
func putHeader(dst []byte, stream uint32, op Opcode, payloadLen int) {
	dst[0] = Magic
	dst[1] = Version
	binary.BigEndian.PutUint32(dst[2:6], stream)
	dst[6] = byte(op)
	binary.BigEndian.PutUint32(dst[7:11], uint32(payloadLen))
}

// ParseHeader decodes an 11-byte frame header.
func ParseHeader(h []byte) (Header, error) {
	if len(h) < HeaderLen {
		return Header{}, io.ErrUnexpectedEOF
	}
	if h[0] != Magic {
		return Header{}, ErrBadMagic
	}
	if h[1] != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, h[1])
	}
	return Header{
		Stream: binary.BigEndian.Uint32(h[2:6]),
		Op:     Opcode(h[6]),
		Len:    int(binary.BigEndian.Uint32(h[7:11])),
	}, nil
}

// beginFrame appends a header with a zero length placeholder and
// returns the offset of the header for endFrame to patch.
func beginFrame(dst []byte, stream uint32, op Opcode) ([]byte, int) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	putHeader(dst[off:], stream, op, 0)
	return dst, off
}

// endFrame patches the payload length of the frame begun at off.
func endFrame(dst []byte, off int) []byte {
	binary.BigEndian.PutUint32(dst[off+7:off+11], uint32(len(dst)-off-HeaderLen))
	return dst
}

// ReadFrameInto reads one frame from br into b, reusing b's payload
// capacity. Payloads above maxPayload are refused without reading
// them (the peer cannot force an allocation). The read is zero-alloc
// once b's capacity covers the payload.
func ReadFrameInto(br *bufio.Reader, b *Buf, maxPayload int) error {
	// Peek+Discard keeps the header read allocation-free: the bytes
	// are parsed in place inside the bufio buffer.
	hdr, err := br.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			// A torn header is not a clean close.
			return io.ErrUnexpectedEOF
		}
		return err
	}
	h, err := ParseHeader(hdr)
	if err != nil {
		return err
	}
	br.Discard(HeaderLen)
	if h.Len > maxPayload {
		return fmt.Errorf("%w: %d > %d", ErrOversize, h.Len, maxPayload)
	}
	b.Stream = h.Stream
	b.Op = h.Op
	if cap(b.B) < h.Len {
		b.B = make([]byte, h.Len)
	}
	b.B = b.B[:h.Len]
	if _, err := io.ReadFull(br, b.B); err != nil {
		if err == io.EOF {
			// A header without its payload is a torn frame, not a
			// clean close.
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}
