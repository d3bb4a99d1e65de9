package auth

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/crp"
	"repro/internal/wire"
)

// Every code↔sentinel pairing the protocol defines.
var codeTable = []struct {
	code     ErrorCode
	sentinel error // nil for codes without a sentinel
}{
	{CodeUnknownClient, ErrUnknownClient},
	{CodeAlreadyEnrolled, ErrAlreadyEnrolled},
	{CodeUnknownChallenge, ErrUnknownChallenge},
	{CodeExhausted, ErrExhausted},
	{CodeNoRemapPending, ErrNoRemapPending},
	{CodeBadPlane, ErrBadPlane},
	{CodeInvalidRequest, nil},
	{CodeCanceled, nil},
	{CodeInternal, nil},
	{CodeUnavailable, ErrUnavailable},
}

func TestAuthErrorUnwrapsToSentinel(t *testing.T) {
	err := authErrf(CodeUnknownClient, "dev-9", "%w: %q", ErrUnknownClient, "dev-9")
	if !errors.Is(err, ErrUnknownClient) {
		t.Fatal("AuthError does not unwrap to its sentinel")
	}
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatal("errors.As failed")
	}
	if ae.Code != CodeUnknownClient || ae.ClientID != "dev-9" {
		t.Fatalf("fields = %q/%q", ae.Code, ae.ClientID)
	}
	if !strings.Contains(err.Error(), "code=unknown_client") || !strings.Contains(err.Error(), "client=dev-9") {
		t.Fatalf("Error() = %q, missing structured fields", err.Error())
	}
}

func TestCodeOf(t *testing.T) {
	for _, tc := range codeTable {
		if tc.sentinel == nil {
			continue
		}
		if got := CodeOf(authErr(tc.code, "x", tc.sentinel)); got != tc.code {
			t.Errorf("CodeOf(AuthError{%s}) = %s", tc.code, got)
		}
		// Bare sentinels (pre-taxonomy callers) classify too.
		if got := CodeOf(fmt.Errorf("wrap: %w", tc.sentinel)); got != tc.code {
			t.Errorf("CodeOf(bare %s) = %s", tc.code, got)
		}
	}
	if got := CodeOf(context.Canceled); got != CodeCanceled {
		t.Errorf("CodeOf(context.Canceled) = %s", got)
	}
	if got := CodeOf(errors.New("mystery")); got != CodeInternal {
		t.Errorf("CodeOf(unknown) = %s", got)
	}
}

// Every error code must survive the server's error-frame encoding,
// the frame decoder and the client's reconstruction with the same
// code, client, and errors.Is behaviour.
func TestErrorCodesSurviveWireRoundTrip(t *testing.T) {
	for _, tc := range codeTable {
		t.Run(string(tc.code), func(t *testing.T) {
			cause := tc.sentinel
			if cause == nil {
				cause = errors.New("detail text")
			}
			orig := authErrf(tc.code, "dev-7", "%w: extra", cause)

			// Server side: the error frame it would send on stream 3.
			frame := AppendErrorFrame(nil, 3, orig)

			// Client side: read the frame, decode and reconstruct.
			b := wire.GetBuf()
			defer wire.PutBuf(b)
			if err := wire.ReadFrameInto(bufio.NewReader(bytes.NewReader(frame)), b, 1<<20); err != nil {
				t.Fatal(err)
			}
			if b.Op != wire.OpError || b.Stream != 3 {
				t.Fatalf("frame = stream %d op %q, want an error on stream 3", b.Stream, b.Op)
			}
			rebuilt, err := DecodeErrorFrame(b.B)
			if err != nil {
				t.Fatal(err)
			}

			var ae *AuthError
			if !errors.As(rebuilt, &ae) {
				t.Fatal("reconstructed error is not *AuthError")
			}
			if ae.Code != tc.code || ae.ClientID != "dev-7" {
				t.Fatalf("reconstructed fields = %q/%q", ae.Code, ae.ClientID)
			}
			if tc.sentinel != nil && !errors.Is(rebuilt, tc.sentinel) {
				t.Fatalf("errors.Is(%s sentinel) lost across the wire", tc.code)
			}
			if !strings.Contains(rebuilt.Error(), "extra") {
				t.Fatalf("server message lost: %q", rebuilt.Error())
			}
		})
	}
}

func TestErrorFromWireLegacyFallback(t *testing.T) {
	err := errorFromWire("", "", "old-school failure")
	var ae *AuthError
	if errors.As(err, &ae) {
		t.Fatal("codeless message should not become a typed AuthError")
	}
	if !strings.Contains(err.Error(), "old-school failure") {
		t.Fatalf("message lost: %q", err.Error())
	}
}

// A live TCP server must hand WireClient errors that satisfy the same
// errors.Is checks as in-process Server calls — the tentpole's wire
// guarantee.
func TestWireClientGetsTypedErrors(t *testing.T) {
	srv, _ := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	t.Run("unknown-client", func(t *testing.T) {
		wc, err := Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		ghost := NewResponder("ghost", NewSimDevice(nil), [32]byte{})
		_, err = wc.Authenticate(ctx, ghost)
		if !errors.Is(err, ErrUnknownClient) {
			t.Fatalf("errors.Is(ErrUnknownClient) = false for %v", err)
		}
		var ae *AuthError
		if !errors.As(err, &ae) || ae.Code != CodeUnknownClient || ae.ClientID != "ghost" {
			t.Fatalf("wire error not reconstructed: %#v", err)
		}
	})

	t.Run("unknown-challenge", func(t *testing.T) {
		// Speak raw frames: answer a never-issued challenge id.
		conn, br := dialRaw(t, addr)
		defer conn.Close()
		if _, err := conn.Write(wire.AppendClientID(nil, 1, wire.OpAuthenticate, "tcp-dev")); err != nil {
			t.Fatal(err)
		}
		chFrame := readFrame(t, br)
		var ch crp.Challenge
		err := wire.DecodeChallenge(chFrame.B, &ch)
		wire.PutBuf(chFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp := crp.NewResponse(len(ch.Bits))
		if _, err := conn.Write(wire.AppendResponse(nil, 1, ch.ID+999, &resp)); err != nil {
			t.Fatal(err)
		}
		errFrame := readFrame(t, br)
		defer wire.PutBuf(errFrame)
		if errFrame.Op != wire.OpError {
			t.Fatalf("got %q, want an unknown_challenge error", errFrame.Op)
		}
		code, client, msg, err := wire.DecodeError(errFrame.B)
		if err != nil {
			t.Fatal(err)
		}
		if code != string(CodeUnknownChallenge) {
			t.Fatalf("error code = %q, want %q", code, CodeUnknownChallenge)
		}
		rebuilt := errorFromWire(ErrorCode(code), ClientID(client), msg)
		if !errors.Is(rebuilt, ErrUnknownChallenge) {
			t.Fatalf("errors.Is(ErrUnknownChallenge) = false for %v", rebuilt)
		}
	})

	t.Run("remap-without-reserved-plane", func(t *testing.T) {
		// Enroll a client with no reserved plane, then ask it to remap.
		srv2, resp2 := wireFixture2(t)
		addr2, stop2 := startWire(t, srv2)
		defer stop2()
		wc, err := Dial(ctx, addr2)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		err = wc.Remap(ctx, resp2)
		var ae *AuthError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidRequest {
			t.Fatalf("remap on reserved-less client: %v", err)
		}
	})
}

// wireFixture2 enrolls a client with no reserved planes.
func wireFixture2(t *testing.T) (*Server, *Responder) {
	t.Helper()
	srv, resp := wireFixture(t, 680)
	return srv, resp
}

// The typed error must match what the in-memory path produces, field
// for field, so callers can switch transports without changing error
// handling.
func TestWireErrorMatchesInMemoryError(t *testing.T) {
	srv, _ := wireFixture(t, 680, 700)
	_, localErr := srv.IssueChallenge(ctx, "ghost")

	addr, stop := startWire(t, srv)
	defer stop()
	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	_, wireErr := wc.Authenticate(ctx, NewResponder("ghost", NewSimDevice(nil), [32]byte{}))

	var localAE, wireAE *AuthError
	if !errors.As(localErr, &localAE) || !errors.As(wireErr, &wireAE) {
		t.Fatalf("not AuthErrors: local=%v wire=%v", localErr, wireErr)
	}
	if localAE.Code != wireAE.Code || localAE.ClientID != wireAE.ClientID {
		t.Fatalf("mismatch: local=%s/%s wire=%s/%s", localAE.Code, localAE.ClientID, wireAE.Code, wireAE.ClientID)
	}
	if errors.Is(localErr, ErrUnknownClient) != errors.Is(wireErr, ErrUnknownClient) {
		t.Fatal("errors.Is differs between transports")
	}
}

// Ensure AuthError does not accidentally satisfy errors.Is against a
// different sentinel.
func TestAuthErrorNoCrossMatch(t *testing.T) {
	err := authErr(CodeExhausted, "d", ErrExhausted)
	if errors.Is(err, ErrUnknownClient) {
		t.Fatal("exhausted error matches ErrUnknownClient")
	}
}
