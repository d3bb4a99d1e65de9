// Package wal is the authentication server's write-ahead log: an
// append-only, CRC32C-framed journal of every enrollment-database
// mutation between snapshots.
//
// The no-reuse registry is a security invariant — a consumed
// challenge pair that the server forgets can be reissued, reopening
// both simple replay and the paper's Section 6.7 model-building
// window. A snapshot alone therefore isn't durability: every pair
// burned between snapshots must hit stable storage before the
// challenge leaves the server. The WAL records exactly the mutations
// the auth layer performs (enroll, pair burn, key rotation, challenge
// counter advance); recovery loads the latest snapshot and replays the
// log tail; compaction folds sealed segments into a fresh snapshot and
// deletes them.
//
// # On-disk format
//
// A log directory holds numbered segment files plus at most one
// snapshot:
//
//	wal-00000001.log
//	wal-00000002.log
//	snapshot.json
//
// The snapshot is whatever the save function given to Compact writes:
// auth.Server.SaveState's v3 binary snapshot, kept under the file's
// historical name (versions 1 and 2 were JSON, and directories written
// by them still load), so no directory ever needs renaming.
//
// Every segment starts with the 8-byte magic "ACWALv1\n". Records
// follow as length-prefixed frames:
//
//	[u32 length LE][u32 CRC32C(payload) LE][payload]
//
// The payload's first byte is the record type; the rest is a
// field-wise uvarint/bytes encoding (see encode/decodePayload). The
// CRC uses the Castagnoli polynomial. A torn final frame — short
// length prefix, short payload, or CRC mismatch at the tail — is a
// crash artifact, not corruption: recovery keeps the clean prefix and
// truncates the rest. A bad frame *followed by* valid frames is real
// corruption and fails recovery loudly.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crp"
)

// Type discriminates journal records.
type Type uint8

// Record types. The values are the on-disk encoding — never renumber.
// The record table in docs/PROTOCOL.md is the public contract for
// these values; waldrift diffs it against the constants below.
//
//lint:recordtable ../../docs/PROTOCOL.md#write-ahead-log-records
const (
	// TypeEnroll captures a full new client: error map, initial remap
	// key, reserved voltage planes.
	TypeEnroll Type = 1
	// TypeBurn captures one challenge issue: the consumed *physical*
	// pairs plus the client's challenge counter and per-key CRP budget
	// after the issue.
	TypeBurn Type = 2
	// TypeRemap captures a committed key rotation (the new key; the
	// CRP budget implicitly resets to zero).
	TypeRemap Type = 3
	// TypeCounter captures a challenge-counter advance that burns no
	// pairs (a key-update transaction drawing from a reserved plane).
	TypeCounter Type = 4
	// Type 5 is retired and never reused: it was a client removal that
	// no deployment ever wrote, and the decoder refuses it as unknown.
)

func (t Type) String() string {
	switch t {
	case TypeEnroll:
		return "enroll"
	case TypeBurn:
		return "burn"
	case TypeRemap:
		return "remap"
	case TypeCounter:
		return "counter"
	}
	return fmt.Sprintf("wal.Type(%d)", uint8(t))
}

// Record is one journal entry. Which fields are meaningful depends on
// Type; unused fields are zero.
type Record struct {
	Type     Type
	ClientID string

	// MapBytes is the errormap.Map binary encoding (TypeEnroll).
	MapBytes []byte
	// Key is the remap key (TypeEnroll: initial; TypeRemap: rotated).
	Key [32]byte
	// Reserved lists reserved voltage planes in mV (TypeEnroll).
	Reserved []int

	// Pairs are the consumed physical pairs (TypeBurn).
	Pairs []crp.PairBit
	// NextID is the client's challenge counter after the operation
	// (TypeBurn, TypeCounter).
	NextID uint64
	// CRPsSinceRemap is the per-key budget after the burn (TypeBurn).
	CRPsSinceRemap int
}

// maxPayload bounds a single record. The largest legitimate record is
// an enrollment map (a few hundred KB for the biggest simulated
// caches); the cap exists so a corrupt length prefix cannot ask the
// reader to allocate gigabytes.
const maxPayload = 1 << 26 // 64 MiB

// encodePayload serialises a record payload (type byte + fields).
func encodePayload(r *Record) []byte {
	// Rough capacity: fixed fields + map + pairs.
	buf := make([]byte, 0, 64+len(r.MapBytes)+len(r.Pairs)*6)
	buf = append(buf, byte(r.Type))
	buf = appendString(buf, r.ClientID)
	switch r.Type {
	case TypeEnroll:
		buf = appendBytes(buf, r.MapBytes)
		buf = append(buf, r.Key[:]...)
		buf = binary.AppendUvarint(buf, uint64(len(r.Reserved)))
		for _, v := range r.Reserved {
			buf = binary.AppendVarint(buf, int64(v))
		}
	case TypeBurn:
		buf = binary.AppendUvarint(buf, uint64(len(r.Pairs)))
		for _, p := range r.Pairs {
			buf = binary.AppendVarint(buf, int64(p.A))
			buf = binary.AppendVarint(buf, int64(p.B))
			buf = binary.AppendVarint(buf, int64(p.VddMV))
		}
		buf = binary.AppendUvarint(buf, r.NextID)
		buf = binary.AppendUvarint(buf, uint64(r.CRPsSinceRemap))
	case TypeRemap:
		buf = append(buf, r.Key[:]...)
	case TypeCounter:
		buf = binary.AppendUvarint(buf, r.NextID)
	}
	return buf
}

// decodePayload parses a record payload. It never panics on malformed
// input: every length is bounds-checked before use, so arbitrary bytes
// decode to an error at worst (the FuzzWALReplay contract).
func decodePayload(buf []byte) (*Record, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	r := &Record{Type: Type(buf[0])}
	d := decoder{buf: buf[1:]}
	var err error
	if r.ClientID, err = d.str(); err != nil {
		return nil, err
	}
	switch r.Type {
	case TypeEnroll:
		if r.MapBytes, err = d.bytes(); err != nil {
			return nil, err
		}
		if err = d.array32(&r.Key); err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		r.Reserved = make([]int, n)
		for i := range r.Reserved {
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			r.Reserved[i] = int(v)
		}
	case TypeBurn:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		r.Pairs = make([]crp.PairBit, n)
		for i := range r.Pairs {
			a, err := d.varint()
			if err != nil {
				return nil, err
			}
			b, err := d.varint()
			if err != nil {
				return nil, err
			}
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			r.Pairs[i] = crp.PairBit{A: int(a), B: int(b), VddMV: int(v)}
		}
		if r.NextID, err = d.uvarint(); err != nil {
			return nil, err
		}
		c, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.CRPsSinceRemap = int(c)
	case TypeRemap:
		if err = d.array32(&r.Key); err != nil {
			return nil, err
		}
	case TypeCounter:
		if r.NextID, err = d.uvarint(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", buf[0])
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after %s record", len(d.buf), r.Type)
	}
	return r, nil
}

// decoder is a bounds-checked cursor over a payload.
type decoder struct{ buf []byte }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// count reads a length prefix and sanity-bounds it against the bytes
// that remain, so a hostile count cannot drive a huge allocation.
func (d *decoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)) {
		return 0, fmt.Errorf("wal: count %d exceeds remaining %d bytes", v, len(d.buf))
	}
	return int(v), nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (d *decoder) array32(out *[32]byte) error {
	if len(d.buf) < 32 {
		return fmt.Errorf("wal: truncated 32-byte field")
	}
	copy(out[:], d.buf[:32])
	d.buf = d.buf[32:]
	return nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
