package wire

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/crp"
)

// FuzzDecoders throws arbitrary payload bytes at every payload
// decoder: none may panic or over-read, whatever the length prefixes
// claim.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendChallenge(nil, 1, testChallenge(4))[HeaderLen:])
	resp := crp.NewResponse(16)
	f.Add(AppendResponse(nil, 1, 9, &resp)[HeaderLen:])
	f.Add(AppendVerdict(nil, 1, Verdict{Accepted: true, HasConfirm: true})[HeaderLen:])
	f.Add(AppendError(nil, 1, "internal", "dev", "boom")[HeaderLen:])
	f.Add(AppendRemapChallenge(nil, 1, testChallenge(5), 1, []byte{0xA5})[HeaderLen:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, p []byte) {
		var ch crp.Challenge
		if err := DecodeChallenge(p, &ch); err == nil {
			if len(ch.Bits) > maxChallengeBits {
				t.Fatalf("oversized challenge slipped through: %d bits", len(ch.Bits))
			}
		}
		var r crp.Response
		if _, err := DecodeResponse(p, &r); err == nil && len(r.Bits) != (r.N+7)/8 {
			t.Fatalf("response bits/len mismatch: %d bytes for %d bits", len(r.Bits), r.N)
		}
		if keyBits, _, err := DecodeRemapChallenge(p, &ch); err == nil {
			if len(ch.Bits) > maxChallengeBits || keyBits < 1 || keyBits > maxChallengeBits {
				t.Fatalf("remap challenge slipped through: %d bits, %d key bits", len(ch.Bits), keyBits)
			}
		}
		DecodeVerdict(p)
		DecodeError(p)
		DecodeRemapDone(p)
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic, never allocate beyond the payload cap, and always
// either produce a well-formed frame or a typed framing error.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendChallenge(nil, 7, testChallenge(8)))
	f.Add([]byte{Magic, Version, 0, 0, 0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("{\"type\":\"authenticate\"}\n"))
	f.Add(bytes.Repeat([]byte{Magic}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		b := GetBuf()
		defer PutBuf(b)
		for i := 0; i < 64; i++ {
			if err := ReadFrameInto(br, b, 1<<16); err != nil {
				return
			}
			if len(b.B) > 1<<16 {
				t.Fatalf("payload %d exceeds cap", len(b.B))
			}
		}
	})
}
