package cluster

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
	"repro/internal/wire"
)

// A primary's refusal of a proposal reaches the follower's caller as
// the typed error the primary raised — errors.Is against the auth
// sentinel holds, as it does for a remote client — while a refusal
// the follower cannot decode stays a retryable unavailable.
func TestProposalRefusalKeepsSentinel(t *testing.T) {
	unknown := wire.AppendError(nil, 1, string(auth.CodeUnknownClient), "dev-1", `auth: unknown client: "dev-1"`)
	cases := []struct {
		name     string
		payload  []byte
		code     auth.ErrorCode
		sentinel error
	}{
		{"unknown client", unknown[wire.HeaderLen:], auth.CodeUnknownClient, auth.ErrUnknownClient},
		{"malformed refusal", []byte{0xff}, auth.CodeUnavailable, auth.ErrUnavailable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			followerEnd, primaryEnd := net.Pipe()
			defer primaryEnd.Close()
			lnk := newPrimaryLink(followerEnd, 5*time.Second)
			defer lnk.shutdown()

			errc := make(chan error, 1)
			go func() {
				prop := &auth.DelegatedProposal{Phys: []crp.PairBit{{A: 1, B: 2, VddMV: 680}}, KeySum: 7}
				_, err := lnk.propose(context.Background(), "dev-1", prop)
				errc <- err
			}()
			b := wire.GetBuf()
			defer wire.PutBuf(b)
			if err := wire.ReadFrameInto(bufio.NewReader(primaryEnd), b, maxRepFrame); err != nil {
				t.Fatal(err)
			}
			if b.Op != wire.OpRepPropose {
				t.Fatalf("link sent %q, want a proposal", b.Op)
			}
			lnk.deliver(b.Stream, wire.OpError, c.payload)

			err := <-errc
			var ae *auth.AuthError
			if !errors.As(err, &ae) || ae.Code != c.code || ae.ClientID != "dev-1" {
				t.Fatalf("refusal = %v, want code %s for dev-1", err, c.code)
			}
			if !errors.Is(err, c.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, c.sentinel)
			}
		})
	}
}
