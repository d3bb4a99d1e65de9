package auth

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/fault"
	"repro/internal/wire"
)

// TestResilientV2SurvivesDrops pins the retry classification under
// connection drops: transport loss redials, verdicts never retry.
func TestResilientV2SurvivesDrops(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWireFaulty(t, NewWireServer(srv), fault.ConnPlan{DropProb: 0.1, Seed: 4321})
	defer stop()

	rc, err := DialResilient(ctx, addr, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 30; i++ {
		ok, err := rc.Authenticate(ctx, resp)
		if err != nil {
			t.Fatalf("round %d: %v (stats %+v)", i, err, rc.Stats())
		}
		if !ok {
			t.Fatalf("round %d: genuine client rejected", i)
		}
	}
	if rc.Stats().Retries == 0 {
		t.Fatal("30 rounds at 10% drop rate injected no retries; the harness is not exercising faults")
	}
}

// TestResilientV2RemapSurvivesDrops runs key updates, each followed
// by an authentication under the new key, while the wire drops
// connections.
func TestResilientV2RemapSurvivesDrops(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWireFaulty(t, NewWireServer(srv), fault.ConnPlan{DropProb: 0.15, Seed: 77})
	defer stop()

	rc, err := DialResilient(ctx, addr, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 10; i++ {
		oldKey := resp.Key()
		if err := rc.Remap(ctx, resp); err != nil {
			t.Fatalf("remap %d: %v (stats %+v)", i, err, rc.Stats())
		}
		if resp.Key() == oldKey {
			t.Fatalf("remap %d: key not rotated", i)
		}
		ok, err := rc.Authenticate(ctx, resp)
		if err != nil || !ok {
			t.Fatalf("post-remap auth %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestResilientV2PipelinedUnderDrops runs concurrent transactions on
// ONE resilient v2 client while the wire drops connections: the
// generation-tracked redial must converge (no thundering redial, no
// lost transactions) with every goroutine sharing the pipeline.
func TestResilientV2PipelinedUnderDrops(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWireFaulty(t, NewWireServer(srv), fault.ConnPlan{DropProb: 0.05, Seed: 2025})
	defer stop()

	rc, err := DialResilient(ctx, addr, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const lanes, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				ok, err := rc.Authenticate(ctx, resp)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- errorsNew("rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%v (stats %+v)", err, rc.Stats())
	}
}

// TestWireV2CanceledContextLeavesConnUsable pins that a canceled
// transaction only abandons its stream: it reports CodeCanceled and
// later transactions on the same client still work.
func TestWireV2CanceledContextLeavesConnUsable(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := wc.Authenticate(canceled, resp); CodeOf(err) != CodeCanceled {
		t.Fatalf("canceled transaction: err=%v, want CodeCanceled", err)
	}
	ok, err := wc.Authenticate(ctx, resp)
	if err != nil || !ok {
		t.Fatalf("post-cancel transaction: ok=%v err=%v", ok, err)
	}
}

// startWireConfig spins up a wire server with explicit limits on a
// random localhost port.
func startWireConfig(t *testing.T, srv *Server, cfg WireConfig) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWireServerConfig(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.Serve(ctx, l)
	}()
	return l.Addr().String(), func() {
		ws.Close()
		<-done
	}
}

func TestWireV2AuthenticateEndToEnd(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	for i := 0; i < 3; i++ {
		ok, err := wc.Authenticate(ctx, resp)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("genuine client rejected over v2 framing (round %d)", i)
		}
	}
}

// A connection has no transaction budget: a long-lived client (a
// router's pooled relay connection) runs any number of transactions
// on it.
func TestWireConnOutlivesManyTransactions(t *testing.T) {
	srv, resp := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	for i := 0; i < 1100; i++ {
		ok, err := wc.Authenticate(ctx, resp)
		if err != nil || !ok {
			t.Fatalf("authentication %d on one connection: ok=%v err=%v", i+1, ok, err)
		}
	}
}

// Stream ids wrap on a long-lived connection, past stream 0: a typed
// error on the stream after the wrap fails that transaction alone,
// not the connection.
func TestWireStreamIDsWrapPastZero(t *testing.T) {
	srv, resp := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wc.rc.c2.mu.Lock()
	wc.rc.c2.nextID = math.MaxUint32
	wc.rc.c2.mu.Unlock()
	if ok, err := wc.Authenticate(ctx, resp); err != nil || !ok {
		t.Fatalf("authentication on the last stream id: ok=%v err=%v", ok, err)
	}
	stranger := NewResponder("nobody", resp.dev, resp.Key())
	if _, err := wc.Authenticate(ctx, stranger); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client after the wrap: err = %v, want ErrUnknownClient", err)
	}
	if ok, err := wc.Authenticate(ctx, resp); err != nil || !ok {
		t.Fatalf("connection unusable after the wrap: ok=%v err=%v", ok, err)
	}
}

func TestWireV2RemapEndToEnd(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	oldKey := resp.Key()
	if err := wc.Remap(ctx, resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key() == oldKey {
		t.Fatal("key not rotated over v2 framing")
	}
	ok, err := wc.Authenticate(ctx, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("post-remap v2 authentication failed")
	}
}

func TestWireV2UnknownClientTypedError(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	ghost := NewResponder("ghost", NewSimDevice(errormap.NewMap(errormap.NewGeometry(64))), resp0Key())
	_, err = wc.Authenticate(ctx, ghost)
	if err == nil {
		t.Fatal("unknown client authenticated over v2")
	}
	// The taxonomy must survive the binary framing exactly as it
	// survives JSON: same code, same sentinel, same client id.
	if CodeOf(err) != CodeUnknownClient {
		t.Fatalf("v2 error code = %v, want CodeUnknownClient (err %v)", CodeOf(err), err)
	}
	if !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("v2 error %v does not satisfy errors.Is(ErrUnknownClient)", err)
	}
	var ae *AuthError
	if !errors.As(err, &ae) || ae.ClientID != "ghost" {
		t.Fatalf("v2 error %v lost the client id", err)
	}
}

// TestWireV2Pipelined drives one shared v2 connection from many
// goroutines at once: each transaction rides its own stream, so this
// is the pipelining path end to end (demultiplexer, out-of-order
// verdicts, shared writer) under the race detector.
func TestWireV2Pipelined(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	const lanes, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				ok, err := wc.Authenticate(ctx, resp)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- errorsNew("rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWireNegotiationMatrix pins how the server treats each kind of
// connection opener: the preamble gets served, and anything else —
// including the newline-JSON opener of the retired v1 framing — gets
// a hang-up without a reply.
func TestWireNegotiationMatrix(t *testing.T) {
	// expectHangup fails unless the server closes conn without
	// writing a single byte.
	expectHangup := func(t *testing.T, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 1))
		if n > 0 {
			t.Fatal("server answered an opener it cannot frame instead of hanging up")
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept the connection open")
		}
	}

	t.Run("v2-client-v2-server", func(t *testing.T) {
		srv, resp := wireFixture(t, 680, 700)
		addr, stop := startWire(t, srv)
		defer stop()
		wc, err := Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		if ok, err := wc.Authenticate(ctx, resp); err != nil || !ok {
			t.Fatalf("preamble client: ok=%v err=%v", ok, err)
		}
	})

	t.Run("v1-client-v2-server", func(t *testing.T) {
		srv, _ := wireFixture(t, 680)
		addr, stop := startWire(t, srv)
		defer stop()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("{\"type\":\"authenticate\",\"client_id\":\"tcp-dev\"}\n")); err != nil {
			t.Fatal(err)
		}
		expectHangup(t, conn)
	})

	t.Run("garbage-preamble", func(t *testing.T) {
		srv, _ := wireFixture(t, 680)
		addr, stop := startWire(t, srv)
		defer stop()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Starts with the frame magic but is not the preamble.
		if _, err := conn.Write([]byte{0xA7, 'X', 'Y', 'Z'}); err != nil {
			t.Fatal(err)
		}
		expectHangup(t, conn)
	})
}

// TestWireV2OutOfOrderCompletion proves streams complete out of
// order: a transaction opened first but answered last does not block
// a later stream's verdict. The test speaks raw frames so it controls
// exactly when each response is revealed.
func TestWireV2OutOfOrderCompletion(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pre := wire.Preamble()
	if _, err := conn.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	send := func(frame []byte) {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// readFor reads frames until one for the wanted stream arrives,
	// parking frames of other streams.
	parked := map[uint32]*wire.Buf{}
	readFor := func(stream uint32) *wire.Buf {
		t.Helper()
		if b, ok := parked[stream]; ok {
			delete(parked, stream)
			return b
		}
		for {
			b := wire.GetBuf()
			if err := wire.ReadFrameInto(br, b, 1<<20); err != nil {
				t.Fatal(err)
			}
			if b.Stream == stream {
				return b
			}
			parked[b.Stream] = b
		}
	}

	// Open stream 1 and 2, collect both challenges.
	send(wire.AppendClientID(nil, 1, wire.OpAuthenticate, string(resp.ID)))
	send(wire.AppendClientID(nil, 2, wire.OpAuthenticate, string(resp.ID)))
	var ch1, ch2 crp.Challenge
	b := readFor(1)
	if b.Op != wire.OpChallenge {
		t.Fatalf("stream 1: got %q, want challenge", b.Op)
	}
	if err := wire.DecodeChallenge(b.B, &ch1); err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(b)
	b = readFor(2)
	if b.Op != wire.OpChallenge {
		t.Fatalf("stream 2: got %q, want challenge", b.Op)
	}
	if err := wire.DecodeChallenge(b.B, &ch2); err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(b)

	// Answer stream 2 FIRST and demand its verdict while stream 1 is
	// still open and unanswered.
	r2, err := resp.Respond(&ch2)
	if err != nil {
		t.Fatal(err)
	}
	send(wire.AppendResponse(nil, 2, ch2.ID, &r2))
	b = readFor(2)
	if b.Op != wire.OpVerdict {
		t.Fatalf("stream 2: got %q, want verdict", b.Op)
	}
	v2f, err := wire.DecodeVerdict(b.B)
	wire.PutBuf(b)
	if err != nil {
		t.Fatal(err)
	}
	if !v2f.Accepted {
		t.Fatal("stream 2 (completed first) rejected")
	}

	// Now finish stream 1.
	r1, err := resp.Respond(&ch1)
	if err != nil {
		t.Fatal(err)
	}
	send(wire.AppendResponse(nil, 1, ch1.ID, &r1))
	b = readFor(1)
	if b.Op != wire.OpVerdict {
		t.Fatalf("stream 1: got %q, want verdict", b.Op)
	}
	v1f, err := wire.DecodeVerdict(b.B)
	wire.PutBuf(b)
	if err != nil {
		t.Fatal(err)
	}
	if !v1f.Accepted {
		t.Fatal("stream 1 (completed last) rejected")
	}
}

// TestWireV2StreamCapSheds pins the per-connection stream cap: the
// stream over the cap is answered unavailable while the connection
// and the streams under the cap keep working.
func TestWireV2StreamCapSheds(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWireConfig(t, srv, WireConfig{MaxStreamsPerConn: 1})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pre := wire.Preamble()
	if _, err := conn.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Stream 1 occupies the only slot (challenge unanswered).
	if _, err := conn.Write(wire.AppendClientID(nil, 1, wire.OpAuthenticate, string(resp.ID))); err != nil {
		t.Fatal(err)
	}
	b := wire.GetBuf()
	defer wire.PutBuf(b)
	if err := wire.ReadFrameInto(br, b, 1<<20); err != nil {
		t.Fatal(err)
	}
	if b.Stream != 1 || b.Op != wire.OpChallenge {
		t.Fatalf("stream 1: got stream %d op %q, want challenge", b.Stream, b.Op)
	}

	// Stream 2 must be shed with a retryable unavailable error.
	if _, err := conn.Write(wire.AppendClientID(nil, 2, wire.OpAuthenticate, string(resp.ID))); err != nil {
		t.Fatal(err)
	}
	eb := wire.GetBuf()
	defer wire.PutBuf(eb)
	if err := wire.ReadFrameInto(br, eb, 1<<20); err != nil {
		t.Fatal(err)
	}
	if eb.Stream != 2 || eb.Op != wire.OpError {
		t.Fatalf("stream 2: got stream %d op %q, want error", eb.Stream, eb.Op)
	}
	code, _, msg, err := wire.DecodeError(eb.B)
	if err != nil {
		t.Fatal(err)
	}
	shedErr := errorFromWire(ErrorCode(code), "", msg)
	if CodeOf(shedErr) != CodeUnavailable || !Retryable(shedErr) {
		t.Fatalf("stream shed error %v must be retryable unavailable", shedErr)
	}

	// The connection is still healthy: finish stream 1 normally.
	var ch crp.Challenge
	if err := wire.DecodeChallenge(b.B, &ch); err != nil {
		t.Fatal(err)
	}
	r1, err := resp.Respond(&ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire.AppendResponse(nil, 1, ch.ID, &r1)); err != nil {
		t.Fatal(err)
	}
	vb := wire.GetBuf()
	defer wire.PutBuf(vb)
	if err := wire.ReadFrameInto(br, vb, 1<<20); err != nil {
		t.Fatal(err)
	}
	if vb.Stream != 1 || vb.Op != wire.OpVerdict {
		t.Fatalf("stream 1 verdict: got stream %d op %q", vb.Stream, vb.Op)
	}
	v, err := wire.DecodeVerdict(vb.B)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted {
		t.Fatal("stream 1 rejected after stream 2 was shed")
	}
}
