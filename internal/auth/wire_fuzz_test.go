package auth

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/errormap"
	"repro/internal/rng"
	"repro/internal/wire"
)

// FuzzWireServer feeds arbitrary bytes — non-preamble openers, torn
// preambles, truncated frames, half-valid transactions — straight
// into the server's per-connection handler. The handler must never
// panic, hang past its idle deadline, or leak the goroutine; hostile
// input may only ever produce typed error responses or a dropped
// connection.
func FuzzWireServer(f *testing.F) {
	// Openers without the preamble, among them the newline-JSON
	// transactions of the retired v1 framing: all must be hung up on.
	f.Add([]byte("{\"type\":\"authenticate\",\"client_id\":\"fuzz-dev\"}\n"))
	f.Add([]byte("{\"type\":\"authenticate\",\"client_id\":\"fuzz-dev\"}\n{\"type\":\"response\",\"challenge_id\":1}\n"))
	f.Add([]byte("{\"type\":\"remap\",\"client_id\":\"fuzz-dev\"}\n"))
	f.Add([]byte("{\"type\":\"authenticate\",\"client_id\":\"fuz")) // truncated mid-frame
	f.Add([]byte("{\"type\":\"bogus\"}\n"))
	f.Add([]byte("not json at all\n\x00\xff\xfe\n"))
	f.Add(make([]byte, 1<<12)) // a page of zeros: oversized unterminated line
	f.Add([]byte("\n\n\n"))
	// The preamble path: exact preamble, preamble plus a frame,
	// preamble plus garbage, torn preamble, and magic-but-not-preamble.
	pre := wire.Preamble()
	f.Add(pre[:])
	f.Add(append(pre[:], wire.AppendClientID(nil, 1, wire.OpAuthenticate, "fuzz-dev")...))
	f.Add(append(pre[:], 0xFF, 0xFF, 0xFF))
	f.Add(pre[:2])
	f.Add([]byte{0xA7, 'X', 'Y', 'Z'})

	g := errormap.NewGeometry(512)
	m := errormap.NewMap(g)
	r := rng.New(3)
	m.AddPlane(680, errormap.RandomPlane(g, 20, r))
	srv := NewServer(DefaultConfig(), 5)
	if _, err := srv.Enroll(ctx, "fuzz-dev", m); err != nil {
		f.Fatal(err)
	}
	ws, err := NewWireServerConfig(srv, WireConfig{
		MaxMessageBytes: 1 << 16,
		IdleTimeout:     50 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ws.handle(context.Background(), server)
			server.Close()
		}()
		// Drain whatever the handler writes so the synchronous pipe
		// cannot deadlock on a response.
		go io.Copy(io.Discard, client)
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("handler did not return; idle deadline failed to fire")
		}
		client.Close()
	})
}

// FuzzWireServerV2 is the structured v2 fuzzer: fuzz bytes drive a
// frame generator that produces mutated stream ids, unknown opcodes,
// truncated payloads, and interleaved streams against a server with
// NO enrolled clients. Invariants: the demultiplexer never panics or
// hangs, every error frame carries a non-empty taxonomy code that
// reconstructs a typed *AuthError, and no verdict ever accepts — with
// nothing enrolled, an accepted verdict is a forged authentication.
func FuzzWireServerV2(f *testing.F) {
	// Seed corpus: a valid open, open+continuation, two interleaved
	// streams, a duplicate stream id, an unknown opcode, truncation.
	f.Add([]byte{1, 1, 8, 'f', 'u', 'z', 'z', '-', 'd', 'e', 'v', 0})
	f.Add([]byte{1, 1, 4, 'a', 'b', 'c', 'd', 3, 1, 2, 0, 0})
	f.Add([]byte{1, 1, 2, 'a', 'b', 1, 2, 2, 'c', 'd', 3, 1, 1, 0, 3, 2, 1, 0})
	f.Add([]byte{1, 1, 1, 'x', 1, 1, 1, 'y'})
	f.Add([]byte{11, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{0x81, 1, 30, 'p', 'a', 'r', 't'})
	// Replication opcodes (10-16) arriving on the client-facing port:
	// a hello, a shipped record, an ack, a heartbeat, and a
	// propose/grant pair — all must be refused as protocol errors, not
	// demultiplexed into the replication state machine.
	f.Add([]byte{10, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{12, 0, 16, 0, 0, 0, 0, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{13, 0, 8, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{14, 0, 16, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 40})
	f.Add([]byte{15, 1, 24, 5, 'd', 'e', 'v', '-', '0', 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 168, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{16, 1, 8, 0, 0, 0, 0, 0, 0, 0, 3, 11, 0, 40})

	srv := NewServer(DefaultConfig(), 9) // nothing enrolled
	ws, err := NewWireServerConfig(srv, WireConfig{
		MaxMessageBytes: 1 << 16,
		IdleTimeout:     50 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Generate up to 32 frames from the fuzz bytes. Stream ids are
		// folded into a small space so duplicates and interleavings
		// happen constantly; the high bit of the op byte truncates the
		// frame mid-payload.
		pre := wire.Preamble()
		out := pre[:]
		for n := 0; len(data) >= 3 && n < 32; n++ {
			opByte, streamByte, lenByte := data[0], data[1], data[2]
			data = data[3:]
			plen := int(lenByte) % 64
			if plen > len(data) {
				plen = len(data)
			}
			payload := data[:plen]
			data = data[plen:]
			// %18 covers every defined opcode (replication included,
			// 10-16) plus one undefined value above the table.
			frame := wire.AppendRaw(nil, uint32(streamByte%4), wire.Opcode(opByte%18), payload)
			if opByte&0x80 != 0 && len(frame) > wire.HeaderLen {
				frame = frame[:wire.HeaderLen+len(frame)%wire.HeaderLen]
			}
			out = append(out, frame...)
		}

		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ws.handle(context.Background(), server)
			server.Close()
		}()
		// Validate every frame the server emits while draining it.
		violation := make(chan string, 1)
		go func() {
			br := bufio.NewReader(client)
			b := wire.GetBuf()
			defer wire.PutBuf(b)
			for {
				if err := wire.ReadFrameInto(br, b, 1<<20); err != nil {
					return // EOF/closed pipe: server hung up
				}
				switch b.Op {
				case wire.OpError:
					code, _, msg, derr := wire.DecodeError(b.B)
					if derr != nil {
						sendViolation(violation, "undecodable error frame: "+derr.Error())
						return
					}
					if code == "" {
						sendViolation(violation, "error frame without taxonomy code: "+msg)
						return
					}
					var ae *AuthError
					if !errors.As(errorFromWire(ErrorCode(code), "", msg), &ae) {
						sendViolation(violation, "error frame did not reconstruct *AuthError: "+code)
						return
					}
				case wire.OpVerdict:
					v, derr := wire.DecodeVerdict(b.B)
					if derr != nil {
						sendViolation(violation, "undecodable verdict frame: "+derr.Error())
						return
					}
					if v.Accepted {
						sendViolation(violation, "forged accept: verdict accepted with nothing enrolled")
						return
					}
				}
			}
		}()
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(out)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("v2 handler did not return; idle deadline failed to fire")
		}
		client.Close()
		select {
		case v := <-violation:
			t.Fatal(v)
		default:
		}
	})
}

// sendViolation reports the first invariant violation without
// blocking the validator goroutine.
func sendViolation(ch chan string, msg string) {
	select {
	case ch <- msg:
	default:
	}
}
