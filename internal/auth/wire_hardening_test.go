package auth

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// A frame header claiming a payload over the 1 MiB frame cap must get the
// connection dropped without the payload being read or buffered.
func TestWireRejectsOversizedMessage(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	conn, br := dialRaw(t, addr)
	defer conn.Close()

	// A header announcing a 2 MiB client id, then only the first few
	// bytes of it. A server that tried to read the payload would wait
	// for the rest until its 30 s idle deadline; the cap check must
	// hang up at once.
	frame := wire.AppendClientID(nil, 1, wire.OpAuthenticate, "AAAAAAAA")
	binary.BigEndian.PutUint32(frame[7:11], 2<<20)
	if _, err := conn.Write(frame); err != nil {
		// The server may already have hung up mid-write; that is the
		// desired outcome.
		return
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	b := wire.GetBuf()
	defer wire.PutBuf(b)
	err := wire.ReadFrameInto(br, b, 1<<20)
	if err == nil {
		t.Fatalf("oversized frame was answered with op %q", b.Op)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server waited for the oversized payload instead of hanging up")
	}
}

// Garbage from one peer — bytes that are not the preamble, or broken
// framing after it — must not take the server down for other clients.
func TestWireSurvivesAbusiveClient(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte("this is not a preamble\n"))
	bad.Close()

	framed, _ := dialRaw(t, addr)
	framed.Write([]byte("neither is this a frame"))
	framed.Close()

	good, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	ok, err := good.Authenticate(ctx, resp)
	if err != nil || !ok {
		t.Fatalf("good client failed after abusive peer: ok=%v err=%v", ok, err)
	}
}

// The server must not crash on a response frame missing its payload:
// the stream is answered invalid_request.
func TestWireNilResponsePayload(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	conn, br := dialRaw(t, addr)
	defer conn.Close()
	if _, err := conn.Write(wire.AppendClientID(nil, 1, wire.OpAuthenticate, "tcp-dev")); err != nil {
		t.Fatal(err)
	}
	challenge := readFrame(t, br)
	op := challenge.Op
	wire.PutBuf(challenge)
	if op != wire.OpChallenge {
		t.Fatalf("got %q, want challenge", op)
	}
	if _, err := conn.Write(wire.AppendRaw(nil, 1, wire.OpResponse, nil)); err != nil {
		t.Fatal(err)
	}
	reply := readFrame(t, br)
	defer wire.PutBuf(reply)
	if reply.Op != wire.OpError {
		t.Fatalf("expected error for empty payload, got %q", reply.Op)
	}
	if err := frameErr(reply); CodeOf(err) != CodeInvalidRequest {
		t.Fatalf("empty response payload answered %v, want CodeInvalidRequest", err)
	}
}

// Frames larger than the server's 32 KiB read buffer (but under the
// cap) must be reassembled, not refused.
func TestMsgReaderLargeButLegalMessage(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	conn, br := dialRaw(t, addr)
	defer conn.Close()
	// 100 KiB client id: bigger than the 32 KiB bufio buffer, smaller
	// than the 1 MiB cap; the server must parse it and answer with a
	// clean protocol error (unknown client).
	id := strings.Repeat("x", 100<<10)
	if _, err := conn.Write(wire.AppendClientID(nil, 1, wire.OpAuthenticate, id)); err != nil {
		t.Fatal(err)
	}
	reply := readFrame(t, br)
	defer wire.PutBuf(reply)
	if reply.Op != wire.OpError {
		t.Fatalf("reply op = %q, want error", reply.Op)
	}
	if err := frameErr(reply); CodeOf(err) != CodeUnknownClient {
		t.Fatalf("reply = %v, want CodeUnknownClient", err)
	}
}
