package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/crp"
)

func testChallenge(nbits int) *crp.Challenge {
	ch := &crp.Challenge{ID: 0xDEADBEEFCAFE, Bits: make([]crp.PairBit, nbits)}
	for i := range ch.Bits {
		ch.Bits[i] = crp.PairBit{A: i * 3, B: i*3 + 1, VddMV: 680 + (i % 2 * 20)}
	}
	return ch
}

func readOne(t *testing.T, raw []byte) *Buf {
	t.Helper()
	b := GetBuf()
	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(raw)), b, 1<<20); err != nil {
		t.Fatalf("ReadFrameInto: %v", err)
	}
	return b
}

func TestChallengeRoundTrip(t *testing.T) {
	ch := testChallenge(256)
	raw := AppendChallenge(nil, 42, ch)
	b := readOne(t, raw)
	if b.Stream != 42 || b.Op != OpChallenge {
		t.Fatalf("header = stream %d op %v", b.Stream, b.Op)
	}
	var got crp.Challenge
	if err := DecodeChallenge(b.B, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != ch.ID || len(got.Bits) != len(ch.Bits) {
		t.Fatalf("decoded id=%d bits=%d", got.ID, len(got.Bits))
	}
	for i := range got.Bits {
		if got.Bits[i] != ch.Bits[i] {
			t.Fatalf("bit %d: %+v != %+v", i, got.Bits[i], ch.Bits[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := crp.NewResponse(131)
	for i := 0; i < resp.N; i += 3 {
		resp.SetBit(i, 1)
	}
	raw := AppendResponse(nil, 7, 991, &resp)
	b := readOne(t, raw)
	var got crp.Response
	id, err := DecodeResponse(b.B, &got)
	if err != nil {
		t.Fatal(err)
	}
	if id != 991 || got.N != resp.N || !bytes.Equal(got.Bits, resp.Bits) {
		t.Fatalf("decoded id=%d n=%d", id, got.N)
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	for _, v := range []Verdict{
		{},
		{Accepted: true, HasConfirm: true, Confirm: [32]byte{1, 2, 3}},
		{Accepted: true, RemapAdvised: true, HasConfirm: true},
	} {
		raw := AppendVerdict(nil, 3, v)
		b := readOne(t, raw)
		got, err := DecodeVerdict(b.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("verdict %+v != %+v", got, v)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	raw := AppendError(nil, 9, "unavailable", "dev-3", "shed: cap reached")
	b := readOne(t, raw)
	code, client, msg, err := DecodeError(b.B)
	if err != nil {
		t.Fatal(err)
	}
	if code != "unavailable" || client != "dev-3" || msg != "shed: cap reached" {
		t.Fatalf("got %q %q %q", code, client, msg)
	}
}

func TestClientIDAndRemapDoneAndAck(t *testing.T) {
	raw := AppendClientID(nil, 1, OpAuthenticate, "dev-0")
	raw = AppendRemapDone(raw, 2, true)
	raw = AppendRemapAck(raw, 3)
	br := bufio.NewReader(bytes.NewReader(raw))
	b := GetBuf()
	if err := ReadFrameInto(br, b, 1<<20); err != nil {
		t.Fatal(err)
	}
	if b.Op != OpAuthenticate || string(DecodeClientID(b.B)) != "dev-0" {
		t.Fatalf("frame 1: %v %q", b.Op, b.B)
	}
	if err := ReadFrameInto(br, b, 1<<20); err != nil {
		t.Fatal(err)
	}
	ok, err := DecodeRemapDone(b.B)
	if err != nil || !ok || b.Stream != 2 {
		t.Fatalf("frame 2: ok=%v err=%v", ok, err)
	}
	if err := ReadFrameInto(br, b, 1<<20); err != nil {
		t.Fatal(err)
	}
	if b.Op != OpRemapAck || len(b.B) != 0 {
		t.Fatalf("frame 3: %v payload %d", b.Op, len(b.B))
	}
}

// testRemapPayload encodes a key update's remap challenge: 640
// reserved-plane pair bits (128 key bits at repetition 5) and the 80
// helper offset bytes that mask them.
func testRemapPayload() (ch *crp.Challenge, offset, payload []byte) {
	ch = testChallenge(640)
	for i := range ch.Bits {
		ch.Bits[i].VddMV = 700
	}
	offset = make([]byte, 80)
	for i := range offset {
		offset[i] = byte(i*37 + 5)
	}
	return ch, offset, AppendRemapChallenge(nil, 9, ch, 128, offset)[HeaderLen:]
}

func TestRemapChallengeRoundTrip(t *testing.T) {
	ch, offset, _ := testRemapPayload()
	b := readOne(t, AppendRemapChallenge(nil, 9, ch, 128, offset))
	if b.Stream != 9 || b.Op != OpRemapChallenge {
		t.Fatalf("header = stream %d op %v", b.Stream, b.Op)
	}
	if want := 12 + 640*12 + 4 + 80; len(b.B) != want {
		t.Fatalf("payload is %d bytes, want %d", len(b.B), want)
	}
	var got crp.Challenge
	keyBits, gotOffset, err := DecodeRemapChallenge(b.B, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ch.ID || len(got.Bits) != len(ch.Bits) {
		t.Fatalf("decoded id=%d bits=%d", got.ID, len(got.Bits))
	}
	for i := range got.Bits {
		if got.Bits[i] != ch.Bits[i] {
			t.Fatalf("bit %d: %+v != %+v", i, got.Bits[i], ch.Bits[i])
		}
	}
	if keyBits != 128 || !bytes.Equal(gotOffset, offset) {
		t.Fatalf("helper: %d key bits, offset %x", keyBits, gotOffset)
	}
}

func TestDecodeRemapChallengeRejects(t *testing.T) {
	_, _, good := testRemapPayload()
	withU32 := func(at int, v uint32) []byte {
		p := bytes.Clone(good)
		binary.BigEndian.PutUint32(p[at:], v)
		return p
	}
	keyAt := 12 + 640*12
	for name, p := range map[string][]byte{
		"nbits above cap":     withU32(8, maxChallengeBits+1),
		"nbits at u32 max":    withU32(8, 0xFFFFFFFF),
		"nbits past payload":  withU32(8, 641+100),
		"zero key bits":       withU32(keyAt, 0),
		"key bits above cap":  withU32(keyAt, maxChallengeBits+1),
		"key bits at u32 max": withU32(keyAt, 0xFFFFFFFF),
		// What a server from before the binary payload sends.
		"JSON request": []byte(`{"challenge":{"id":7,"bits":[{"a":1,"b":2,"vdd_mv":700}]},"helper":{"Offset":"AA==","KeyBits":1}}`),
	} {
		var ch crp.Challenge
		if _, _, err := DecodeRemapChallenge(p, &ch); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every cut short of the helper offset is an error, never a panic:
	// a torn header, fewer pairs than claimed, a missing or torn
	// key-bit field.
	for n := 0; n < keyAt+4; n++ {
		var ch crp.Challenge
		if _, _, err := DecodeRemapChallenge(good[:n], &ch); err == nil {
			t.Fatalf("payload cut to %d bytes accepted", n)
		}
	}
}

func TestReadFrameRejects(t *testing.T) {
	ch := testChallenge(8)
	good := AppendChallenge(nil, 1, ch)

	badMagic := append([]byte{}, good...)
	badMagic[0] = '{'
	b := GetBuf()
	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(badMagic)), b, 1<<20); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	badVer := append([]byte{}, good...)
	badVer[1] = 7
	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(badVer)), b, 1<<20); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(good)), b, 16); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize: %v", err)
	}

	torn := good[:len(good)-5]
	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(torn)), b, 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn payload: %v", err)
	}

	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(nil)), b, 1<<20); !errors.Is(err, io.EOF) {
		t.Fatalf("empty: %v", err)
	}
}

func TestDecodeRejectsTruncatedPayloads(t *testing.T) {
	var ch crp.Challenge
	if err := DecodeChallenge([]byte{1, 2}, &ch); err == nil {
		t.Fatal("truncated challenge accepted")
	}
	// Length prefix claiming more bits than the payload holds.
	raw := AppendChallenge(nil, 1, testChallenge(4))
	payload := append([]byte{}, raw[HeaderLen:]...)
	payload[11] = 200 // inflate the bit count
	if err := DecodeChallenge(payload, &ch); err == nil {
		t.Fatal("inflated challenge accepted")
	}
	var resp crp.Response
	if _, err := DecodeResponse([]byte{0}, &resp); err == nil {
		t.Fatal("truncated response accepted")
	}
	if _, err := DecodeVerdict(nil); err == nil {
		t.Fatal("empty verdict accepted")
	}
	if _, err := DecodeVerdict([]byte{flagConfirm, 1, 2}); err == nil {
		t.Fatal("short confirm accepted")
	}
	if _, _, _, err := DecodeError([]byte{40, 1}); err == nil {
		t.Fatal("truncated error accepted")
	}
	if _, err := DecodeRemapDone(nil); err == nil {
		t.Fatal("empty remap_done accepted")
	}
}

func TestPreambleIsNotJSON(t *testing.T) {
	p := Preamble()
	if p[0] == '{' || p[0] == ' ' || p[0] == '\n' {
		t.Fatalf("preamble %v is sniffable as JSON", p)
	}
	if p[0] != Magic || p[3] != Version {
		t.Fatalf("preamble %v does not pin magic+version", p)
	}
}
