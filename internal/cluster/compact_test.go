package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/wal"
)

// TestCompactionWhileServingReplicatedTraffic compacts a primary and a
// follower over and over while replicated traffic flows: direct and
// delegated authentications, and key updates. The primary drops its
// sealed segments on compaction, and crash images of the primary and
// of the follower, taken after the compactions, recover every
// acknowledged client with its last key and its burned pairs.
func TestCompactionWhileServingReplicatedTraffic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tc := startCluster(t, ctx, 3, func(i int, cfg *Config) {
		cfg.WAL.SegmentBytes = 1 << 10 // a few burns per segment
	})
	primary, follower := tc.nodes[0], tc.nodes[1]

	responders := make([]*auth.Responder, 3)
	for i := range responders {
		id := auth.ClientID(fmt.Sprintf("dev-%d", i))
		m := testMap(2048, 60, testSeed+uint64(i), 680, 700)
		key, err := primary.Server().Enroll(ctx, id, m, 700)
		if err != nil {
			t.Fatal(err)
		}
		responders[i] = auth.NewResponder(id, auth.NewSimDevice(m), key)
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return caughtUp(primary, follower) })

	stop := make(chan struct{})
	var compactors sync.WaitGroup
	for _, n := range []*Node{primary, follower} {
		compactors.Add(1)
		go func(n *Node) {
			defer compactors.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if err := n.Compact(); err != nil {
					t.Errorf("compact node %d: %v", n.cfg.NodeIndex, err)
					return
				}
			}
		}(n)
	}
	for round := 0; round < 12; round++ {
		for i, r := range responders {
			be := primary.Backend()
			if (round+i)%2 == 1 {
				be = follower.Backend()
			}
			if ok, err := authRoundTrip(ctx, be, r); err != nil || !ok {
				t.Fatalf("round %d client %d: auth ok=%v err=%v", round, i, ok, err)
			}
		}
		if round%4 == 3 {
			r := responders[round/4]
			req, err := primary.Backend().BeginRemapTx(ctx, r.ID)
			if err != nil {
				t.Fatalf("round %d: begin key update: %v", round, err)
			}
			herr := r.HandleRemap(req)
			if err := primary.Backend().FinishRemapTx(ctx, r.ID, herr == nil); err != nil || herr != nil {
				t.Fatalf("round %d: key update: device %v, finish %v", round, herr, err)
			}
		}
	}
	close(stop)
	compactors.Wait()
	if t.Failed() {
		return
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return caughtUp(primary, follower) })

	// The traffic rotated the primary's log through several segments;
	// one compaction leaves only the live one.
	for i := 0; i < 10; i++ {
		if ok, err := authRoundTrip(ctx, primary.Backend(), responders[0]); err != nil || !ok {
			t.Fatalf("auth %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := len(segments(t, primary.cfg.Dir)); n < 2 {
		t.Fatalf("primary holds %d segments before compaction, want the traffic to have rotated", n)
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, primary.cfg.Dir); len(segs) != 1 {
		t.Fatalf("primary holds %v after compaction, want only the live segment", segs)
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return caughtUp(primary, follower) })

	for _, n := range []*Node{primary, follower} {
		var live bytes.Buffer
		if err := n.Server().SaveState(&live); err != nil {
			t.Fatal(err)
		}
		image := copyDir(t, n.cfg.Dir)
		srv, w, err := Recover(image, wal.Options{}, n.cfg.Auth, n.cfg.Seed, 0)
		if err != nil {
			t.Fatalf("node %d: recover crash image: %v", n.cfg.NodeIndex, err)
		}
		var recovered bytes.Buffer
		err = srv.SaveState(&recovered)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
			t.Fatalf("node %d: crash image recovers a different database than the node serves", n.cfg.NodeIndex)
		}
		for _, r := range responders {
			if key, err := srv.CurrentKey(r.ID); err != nil || key != r.Key() {
				t.Fatalf("node %d: %s recovered without its last key (%v)", n.cfg.NodeIndex, r.ID, err)
			}
		}
	}
}

// segments lists the WAL segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// copyDir copies a live WAL directory: the crash image a kill -9 would
// leave, since every acknowledged record is fsynced.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
