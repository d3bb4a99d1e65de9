package wal

import (
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the segment scanner. The
// contract recovery depends on: the scanner never panics — it either
// returns a clean prefix of intact records (possibly empty) or an
// error, and the reported clean length is always consistent with the
// records it returned.
func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed segment...
	valid := []byte(segMagic)
	for _, rec := range []*Record{
		{Type: TypeEnroll, ClientID: "dev-0", MapBytes: []byte{1, 2, 3}, Key: [32]byte{7}, Reserved: []int{680}},
		{Type: TypeBurn, ClientID: "dev-0", Pairs: nil, NextID: 1, CRPsSinceRemap: 64},
		{Type: TypeCounter, ClientID: "dev-0", NextID: 2},
	} {
		valid = appendFrame(valid, rec)
	}
	f.Add(valid)
	// ...its torn prefix, the bare magic, and pure garbage.
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(segMagic))
	f.Add([]byte("not a wal segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ends, err := scanBytes(data)
		if len(recs) != len(ends) {
			t.Fatalf("%d records but %d end offsets", len(recs), len(ends))
		}
		if err == nil && len(data) >= int(segHeaderLen) {
			// A clean scan must account for every byte.
			want := segHeaderLen
			if len(ends) > 0 {
				want = ends[len(ends)-1]
			}
			if want != int64(len(data)) {
				t.Fatalf("clean scan ended at %d of %d bytes", want, len(data))
			}
		}
		for i, end := range ends {
			if end <= segHeaderLen || end > int64(len(data)) {
				t.Fatalf("record %d end offset %d outside (%d,%d]", i, end, segHeaderLen, len(data))
			}
			if i > 0 && end <= ends[i-1] {
				t.Fatalf("record %d end offset %d not increasing", i, end)
			}
		}
		// Every returned record must survive a re-encode/decode cycle:
		// the scanner only hands out records the writer could have
		// produced.
		for i, rec := range recs {
			if _, err := decodePayload(encodePayload(rec)); err != nil {
				t.Fatalf("record %d not round-trippable: %v", i, err)
			}
		}
	})
}

// appendFrame appends one framed record to a segment image (test
// helper mirroring the writer's framing).
func appendFrame(seg []byte, rec *Record) []byte {
	payload := encodePayload(rec)
	var hdr [frameHeader]byte
	putFrameHeader(hdr[:], payload)
	seg = append(seg, hdr[:]...)
	return append(seg, payload...)
}
