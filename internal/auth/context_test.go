package auth

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/crp"
	"repro/internal/wire"
)

// Every mutating Server method must fail fast with a typed
// CodeCanceled error once its context is dead, before touching any
// client state.
func TestServerMethodsHonourCancelledContext(t *testing.T) {
	m := testMap(t, 16384, 100, 31, 680, 700)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m, 700)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	checks := map[string]func() error{
		"Enroll": func() error {
			_, err := srv.Enroll(dead, "other", m)
			return err
		},
		"IssueChallenge": func() error {
			_, err := srv.IssueChallenge(dead, "dev-1")
			return err
		},
		"IssueChallengeAt": func() error {
			_, err := srv.IssueChallengeAt(dead, "dev-1", 680)
			return err
		},
		"IssueChallengeMulti": func() error {
			_, err := srv.IssueChallengeMulti(dead, "dev-1")
			return err
		},
		"Verify": func() error {
			_, err := srv.Verify(dead, "dev-1", 0, crp.NewResponse(8))
			return err
		},
		"VerifySession": func() error {
			_, _, err := srv.VerifySession(dead, "dev-1", 0, crp.NewResponse(8))
			return err
		},
		"BeginRemap": func() error {
			_, err := srv.BeginRemap(dead, "dev-1")
			return err
		},
		"CompleteRemap": func() error {
			return srv.CompleteRemap(dead, "dev-1", true)
		},
	}
	for name, fn := range checks {
		err := fn()
		if err == nil {
			t.Errorf("%s: nil error under cancelled context", name)
			continue
		}
		var ae *AuthError
		if !errors.As(err, &ae) || ae.Code != CodeCanceled {
			t.Errorf("%s: error %v, want CodeCanceled AuthError", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: errors.Is(context.Canceled) = false", name)
		}
	}

	// The cancelled Verify must not have consumed a pending challenge:
	// issue one live, fail to verify it under a dead ctx, then verify
	// it for real.
	ch, err := srv.IssueChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Verify(dead, "dev-1", ch.ID, crp.NewResponse(len(ch.Bits))); err == nil {
		t.Fatal("verify under dead ctx succeeded")
	}
	if _, err := srv.Verify(ctx, "dev-1", ch.ID, crp.NewResponse(len(ch.Bits))); errors.Is(err, ErrUnknownChallenge) {
		t.Fatal("cancelled Verify consumed the pending challenge")
	}
}

// A WireClient transaction must abort promptly when its context is
// cancelled mid-RPC (server accepted but never answers).
func TestWireClientCancelsMidTransaction(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A black-hole server: reads the preamble, never replies.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.ReadFull(conn, make([]byte, wire.PreambleLen))
		select {} // stall forever; test exit tears the goroutine down
	}()

	wc, err := Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	tctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	m := testMap(t, 1024, 20, 32, 680)
	_, err = wc.Authenticate(tctx, NewResponder("dev-x", NewSimDevice(m), [32]byte{}))
	if err == nil {
		t.Fatal("authenticate against a stalled server succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancellation took %v, context ignored", waited)
	}
	var ae *AuthError
	if !errors.As(err, &ae) || ae.Code != CodeCanceled {
		t.Fatalf("error %v, want CodeCanceled AuthError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(DeadlineExceeded) = false for %v", err)
	}
}

// A pre-cancelled context must fail the transaction before any bytes
// hit the network.
func TestWireClientRejectsDeadContextUpFront(t *testing.T) {
	srv, resp := wireFixture(t, 680)
	addr, stop := startWire(t, srv)
	defer stop()
	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wc.Authenticate(dead, resp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through the wrap", err)
	}
	// The connection must still be usable afterwards.
	ok, err := wc.Authenticate(ctx, resp)
	if err != nil || !ok {
		t.Fatalf("connection unusable after cancelled transaction: ok=%v err=%v", ok, err)
	}
}

// Serve must return promptly when its context is cancelled, without
// Close being called.
func TestServeStopsOnContextCancel(t *testing.T) {
	srv, _ := wireFixture(t, 680)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv)
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ws.Serve(sctx, l) }()
	time.Sleep(20 * time.Millisecond) // let Serve reach Accept
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on context cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
}
