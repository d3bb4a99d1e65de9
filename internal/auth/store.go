package auth

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
)

// Server state persistence. A production enrollment database must
// survive restarts: the error maps are irreplaceable (they are the
// device identities, measured once at the factory), the remap keys are
// live shared secrets, and the consumed-pair registry is a security
// invariant — losing it would let old challenges be reissued and
// replayed. SaveState/LoadState serialize exactly those three things
// per client, plus the challenge counter and the per-key CRP budget
// that drives remap advice.
//
// Pending (issued-but-unverified) challenges and in-flight key updates
// are deliberately transient: on restart an interrupted transaction
// simply fails and the client retries, which is safe because the
// underlying pairs were burned at issue time.

// Snapshot format history:
//
//	1 — JSON, one object per burned pair.
//	2 — JSON; adds crps_since_remap. Without it a restart silently
//	    reset the rotation budget, so a server bounced often enough
//	    would never advise a remap (the Section 6.7 model-building
//	    window reopened on every restart). v1 blobs load with the
//	    counter conservatively zeroed.
//	3 — binary. Each burned pair is stored as its registry index, a
//	    delta uvarint of one or two bytes instead of a JSON object of
//	    about 70: 1.1 M burned pairs took 70.6 MiB as v2 and take
//	    1.46 MiB as v3, which also keeps a replication catch-up
//	    snapshot under the frame cap.
//
// SaveState writes v3 only. LoadState reads all three; the JSON
// versions are a read-only path for snapshots written before v3.
//
// The v3 layout, integers little-endian:
//
//	"ACSNAPv3"       magic
//	u32              client count
//	per client, in id order:
//	  u32            payload length
//	  u32            CRC32C (Castagnoli) of the payload
//	  payload:
//	    uvarint+bytes  client id
//	    uvarint+bytes  error map (errormap.Map.MarshalBinary)
//	    [32]byte       remap key
//	    uvarint n      reserved planes, then n ascending varints (mV)
//	    uvarint        next challenge id
//	    uvarint        CRPs issued since the last remap
//	    ...            burned pairs (crp.Registry.AppendEncoded),
//	                   to the end of the payload
//
// A snapshot must hold exactly its count of records and nothing after
// them, so truncation at a record boundary and trailing bytes are both
// rejected, not silently loaded.
const (
	snapMagic       = "ACSNAPv3"
	snapMagicPrefix = "ACSNAPv"
	snapHeaderLen   = len(snapMagic) + 4
	snapFrameLen    = 8 // u32 length + u32 CRC32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveState writes the full enrollment database to w as a v3 binary
// snapshot. The snapshot is per-record consistent: records are locked
// one at a time, so a save concurrent with traffic captures each
// client at some point during the save, not one global instant.
func (s *Server) SaveState(w io.Writer) error {
	buf := make([]byte, snapHeaderLen, 64<<10)
	copy(buf, snapMagic)
	n := 0
	for _, id := range s.store.IDs() {
		rec, ok := s.store.Get(id)
		if !ok {
			continue // deleted mid-save
		}
		start := len(buf)
		buf = append(buf, make([]byte, snapFrameLen)...)
		rec.mu.Lock()
		mb, err := rec.physMap.MarshalBinary()
		if err != nil {
			rec.mu.Unlock()
			return fmt.Errorf("auth: marshal map for %q: %w", id, err)
		}
		reserved := make([]int, 0, len(rec.reserved))
		for v := range rec.reserved {
			reserved = append(reserved, v)
		}
		slices.Sort(reserved)
		buf = appendClientHead(buf, id, mb, rec.key, reserved, rec.nextID, rec.crpsSinceRemap)
		buf = rec.registry.AppendEncoded(buf)
		rec.mu.Unlock()
		sealRecord(buf, start)
		n++
	}
	binary.LittleEndian.PutUint32(buf[len(snapMagic):], uint32(n))
	_, err := w.Write(buf)
	return err
}

// appendClientHead appends the fields of a v3 client record that come
// before its burned pairs.
func appendClientHead(dst []byte, id ClientID, mapBytes []byte, key mapkey.Key, reserved []int, nextID uint64, crpsSinceRemap int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.AppendUvarint(dst, uint64(len(mapBytes)))
	dst = append(dst, mapBytes...)
	dst = append(dst, key[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(reserved)))
	for _, v := range reserved {
		dst = binary.AppendVarint(dst, int64(v))
	}
	dst = binary.AppendUvarint(dst, nextID)
	return binary.AppendUvarint(dst, uint64(crpsSinceRemap))
}

// sealRecord fills in the frame header reserved at buf[start:] for the
// payload that follows it to the end of buf.
func sealRecord(buf []byte, start int) {
	payload := buf[start+snapFrameLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// LoadState replaces the enrollment database with the one read from r:
// a v3 binary snapshot, or a v1/v2 JSON one. Nothing is replaced
// unless the whole snapshot is valid.
func (s *Server) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	head, _ := br.Peek(len(snapMagic))
	var clients map[ClientID]*clientRecord
	var err error
	if bytes.HasPrefix(head, []byte(snapMagicPrefix)) {
		clients, err = loadBinary(br)
	} else {
		clients, err = loadJSON(br)
	}
	if err != nil {
		return err
	}
	s.store.ReplaceAll(clients)
	return nil
}

// errSnapTruncated reports a v3 record or snapshot cut short.
var errSnapTruncated = errors.New("auth: decode state: truncated snapshot")

// loadBinary decodes a v3 snapshot.
func loadBinary(r io.Reader) (map[ClientID]*clientRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("auth: read state: %w", err)
	}
	if len(data) < snapHeaderLen {
		return nil, errSnapTruncated
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, authErrf(CodeInvalidRequest, "", "auth: unsupported state version %q", data[:len(snapMagic)])
	}
	count := binary.LittleEndian.Uint32(data[len(snapMagic):])
	data = data[snapHeaderLen:]
	// Every record takes at least its frame header.
	if uint64(count) > uint64(len(data)/snapFrameLen) {
		return nil, errSnapTruncated
	}
	clients := make(map[ClientID]*clientRecord, count)
	for i := uint32(0); i < count; i++ {
		if len(data) < snapFrameLen {
			return nil, errSnapTruncated
		}
		size := binary.LittleEndian.Uint32(data)
		sum := binary.LittleEndian.Uint32(data[4:])
		data = data[snapFrameLen:]
		if uint64(size) > uint64(len(data)) {
			return nil, errSnapTruncated
		}
		payload := data[:size]
		data = data[size:]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, authErrf(CodeInvalidRequest, "", "auth: decode state: record %d fails its CRC", i)
		}
		if err := loadBinaryClient(clients, payload); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, authErrf(CodeInvalidRequest, "", "auth: decode state: %d bytes after the last record", len(data))
	}
	return clients, nil
}

// loadBinaryClient decodes one v3 record payload into clients.
func loadBinaryClient(clients map[ClientID]*clientRecord, payload []byte) error {
	c := snapCursor{b: payload}
	id := string(c.bytes(c.uvarint()))
	mapBytes := c.bytes(c.uvarint())
	key := c.bytes(uint64(len(mapkey.Key{})))
	reserved := make([]int, c.count())
	for i := range reserved {
		reserved[i] = int(c.varint())
	}
	nextID := c.uvarint()
	crps := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if crps > math.MaxInt {
		return authErrf(CodeInvalidRequest, ClientID(id), "auth: client %q has a CRP budget of %d", id, crps)
	}
	return loadedClient{
		id: id, mapBytes: mapBytes, key: key, reserved: reserved,
		nextID: nextID, crpsSinceRemap: int(crps),
		registry: func(lines int) (*crp.Registry, error) {
			reg, rest, err := crp.DecodeRegistry(lines, c.b)
			if err != nil {
				return nil, authErrf(CodeInvalidRequest, ClientID(id), "auth: client %q burned pairs: %v", id, err)
			}
			if len(rest) != 0 {
				return nil, authErrf(CodeInvalidRequest, ClientID(id), "auth: client %q record has %d trailing bytes", id, len(rest))
			}
			return reg, nil
		},
	}.addTo(clients)
}

// snapCursor is a bounds-checked reader over one v3 record payload.
// The first failure sticks: later reads return zero values and err
// keeps errSnapTruncated.
type snapCursor struct {
	b   []byte
	err error
}

func (c *snapCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = errSnapTruncated
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *snapCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.err = errSnapTruncated
		return 0
	}
	c.b = c.b[n:]
	return v
}

// count reads the length of a list whose elements take at least one
// byte each.
func (c *snapCursor) count() int {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.err = errSnapTruncated
		return 0
	}
	return int(n)
}

func (c *snapCursor) bytes(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.err = errSnapTruncated
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// loadedClient is one client of a snapshot being loaded, as stored.
type loadedClient struct {
	id             string
	mapBytes, key  []byte
	reserved       []int
	nextID         uint64
	crpsSinceRemap int
	// registry rebuilds the burned pairs for the map's geometry.
	registry func(lines int) (*crp.Registry, error)
}

// addTo validates the client against the clients loaded before it and
// adds its record to them.
func (lc loadedClient) addTo(clients map[ClientID]*clientRecord) error {
	id := ClientID(lc.id)
	if id == "" {
		return authErrf(CodeInvalidRequest, "", "auth: state has a client with empty id")
	}
	m, err := errormap.UnmarshalMap(lc.mapBytes)
	if err != nil {
		return fmt.Errorf("auth: client %q map: %w", id, err)
	}
	var key mapkey.Key
	if len(lc.key) != len(key) {
		return authErrf(CodeInvalidRequest, id, "auth: client %q has a malformed key", id)
	}
	copy(key[:], lc.key)
	reserved := make(map[int]bool, len(lc.reserved))
	for _, v := range lc.reserved {
		if m.Plane(v) == nil {
			return authErrf(CodeInvalidRequest, id, "auth: client %q reserves unenrolled plane %d mV", id, v)
		}
		reserved[v] = true
	}
	if _, dup := clients[id]; dup {
		return authErrf(CodeInvalidRequest, id, "auth: duplicate client %q in state", id)
	}
	reg, err := lc.registry(m.Geometry().Lines)
	if err != nil {
		return err
	}
	rec := newClientRecord(m, key, reserved)
	rec.registry = reg
	rec.nextID = lc.nextID
	rec.crpsSinceRemap = lc.crpsSinceRemap
	clients[id] = rec
	return nil
}

// storedState and storedClient are the v1/v2 JSON snapshot, read only.
type storedState struct {
	Version int            `json:"version"`
	Clients []storedClient `json:"clients"`
}

type storedClient struct {
	ID       string        `json:"id"`
	MapB64   string        `json:"map"`
	KeyHex   string        `json:"key"`
	Reserved []int         `json:"reserved,omitempty"`
	Used     []crp.PairBit `json:"used_pairs,omitempty"`
	NextID   uint64        `json:"next_challenge_id"`
	// CRPsSinceRemap persists the rotation budget (v2).
	CRPsSinceRemap int `json:"crps_since_remap,omitempty"`
}

// loadJSON decodes a v1 or v2 JSON snapshot.
func loadJSON(r io.Reader) (map[ClientID]*clientRecord, error) {
	var st storedState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("auth: decode state: %w", err)
	}
	if st.Version != 1 && st.Version != 2 {
		return nil, authErrf(CodeInvalidRequest, "", "auth: unsupported state version %d", st.Version)
	}
	clients := make(map[ClientID]*clientRecord, len(st.Clients))
	for _, sc := range st.Clients {
		mb, err := base64.StdEncoding.DecodeString(sc.MapB64)
		if err != nil {
			return nil, fmt.Errorf("auth: client %q map: %w", sc.ID, err)
		}
		kb, err := hex.DecodeString(sc.KeyHex)
		if err != nil {
			kb = nil // as malformed as a short key
		}
		used := sc.Used
		err = loadedClient{
			id: sc.ID, mapBytes: mb, key: kb, reserved: sc.Reserved,
			nextID: sc.NextID, crpsSinceRemap: sc.CRPsSinceRemap,
			registry: func(lines int) (*crp.Registry, error) {
				reg := crp.NewRegistryLines(lines)
				reg.Mark(used)
				return reg, nil
			},
		}.addTo(clients)
		if err != nil {
			return nil, err
		}
	}
	return clients, nil
}
