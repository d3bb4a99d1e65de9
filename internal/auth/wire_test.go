package auth

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/errormap"
	"repro/internal/rng"
	"repro/internal/wire"
)

// startWire spins up a wire server on a random localhost port.
func startWire(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv)
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

func wireFixture(t *testing.T, vdds ...int) (*Server, *Responder) {
	t.Helper()
	g := errormap.NewGeometry(16384)
	m := errormap.NewMap(g)
	r := rng.New(77)
	for _, v := range vdds {
		m.AddPlane(v, errormap.RandomPlane(g, 100, r))
	}
	cfg := DefaultConfig()
	srv := NewServer(cfg, 7)
	var reserved []int
	for _, v := range vdds {
		if v == 700 {
			reserved = append(reserved, 700)
		}
	}
	key, err := srv.Enroll(ctx, "tcp-dev", m, reserved...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, NewResponder("tcp-dev", NewSimDevice(m), key)
}

func resp0Key() (k [32]byte) { return }

func TestWireConcurrentClients(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := Dial(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			ok, err := wc.Authenticate(ctx, resp)
			if err != nil {
				errs <- err
				return
			}
			if !ok {
				errs <- errorsNew("rejected")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errorsNew(s string) error { return &strErr{s} }

type strErr struct{ s string }

func (e *strErr) Error() string { return e.s }

// An opcode the server does not know is framing confusion: answered
// with a typed invalid_request error, then a hang-up.
func TestWireMalformedMessage(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()

	conn, br := dialRaw(t, addr)
	defer conn.Close()
	if _, err := conn.Write(wire.AppendRaw(nil, 1, wire.Opcode(99), nil)); err != nil {
		t.Fatal(err)
	}
	b := readFrame(t, br)
	defer wire.PutBuf(b)
	if b.Op != wire.OpError || b.Stream != 1 {
		t.Fatalf("got stream %d op %q, want an error on stream 1", b.Stream, b.Op)
	}
	if err := frameErr(b); CodeOf(err) != CodeInvalidRequest {
		t.Fatalf("unknown opcode answered %v, want CodeInvalidRequest", err)
	}
	if err := wire.ReadFrameInto(br, b, 1<<20); err == nil {
		t.Fatalf("server kept the connection after an unknown opcode (next frame op %q)", b.Op)
	}
}

// dialRaw opens a connection to a wire server and sends the preamble,
// for tests that speak frames directly. The connection carries a
// 10 s deadline so a server that never answers fails the test.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	pre := wire.Preamble()
	if _, err := conn.Write(pre[:]); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// readFrame reads one frame the server sent; the caller returns it to
// the pool.
func readFrame(t *testing.T, br *bufio.Reader) *wire.Buf {
	t.Helper()
	b := wire.GetBuf()
	if err := wire.ReadFrameInto(br, b, 1<<20); err != nil {
		wire.PutBuf(b)
		t.Fatal(err)
	}
	return b
}
