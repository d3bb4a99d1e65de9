package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crp"
	"repro/internal/mapkey"
	"repro/internal/rng"
)

// TestFollowerAdoptsLargeSnapshot: a follower catches up on a primary
// whose state is large. One 16384-line device with 1.1 M burned pairs
// took about 70 MiB as a JSON snapshot, over the replication frame
// cap: the follower refused the frame and redialled forever. The
// binary snapshot of the same state takes under 2 MiB, and the
// session that carries it must go on to a live feed.
func TestFollowerAdoptsLargeSnapshot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var addrs []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, l)
		addrs = append(addrs, l.Addr().String())
	}
	dir := t.TempDir()
	var sessions atomic.Int32
	var following atomic.Bool
	logf := func(format string, args ...any) {
		if strings.Contains(format, "connected (snapshot") {
			sessions.Add(1)
		}
		// The follower logs this after compacting the adopted state,
		// right before its first acknowledgement.
		if strings.Contains(format, "following node") {
			following.Store(true)
		}
		t.Logf(format, args...)
	}
	open := func(i int) *Node {
		cfg := testNodeConfig(i, addrs, filepath.Join(dir, fmt.Sprintf("node-%d", i)))
		cfg.ReplListener = lns[i]
		cfg.Logf = logf
		node, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}

	primary := open(0)
	const lines = 16384
	mb, err := testMap(lines, 100, 9, 680).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Server().ReplayEnroll("dev-0", mb, mapkey.Key{1}, nil); err != nil {
		t.Fatal(err)
	}
	// 1.15 M random draws burn a little over 1.1 M distinct pairs.
	r := rng.New(10)
	pairs := make([]crp.PairBit, 1_150_000)
	for i := range pairs {
		a, b := r.Intn(lines), r.Intn(lines)
		for b == a {
			b = r.Intn(lines)
		}
		pairs[i] = crp.PairBit{A: a, B: b, VddMV: 680}
	}
	if err := primary.Server().ReplayBurn("dev-0", pairs, 4500, len(pairs)); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := primary.Server().SaveState(&want); err != nil {
		t.Fatal(err)
	}
	if err := primary.Start(ctx); err != nil {
		t.Fatal(err)
	}

	follower := open(1)
	if err := follower.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "the follower to adopt the snapshot", func() bool {
		return follower.Server().Enrolled("dev-0") && following.Load()
	})
	var got bytes.Buffer
	if err := follower.Server().SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("adopted state differs from the primary's (%d bytes, want %d)", got.Len(), want.Len())
	}

	// The session that carried the snapshot goes on to a live feed: an
	// enrollment needs the follower's acknowledgement, and arrives
	// without a second snapshot. The wait above covers the follower's
	// compaction of the adopted state too; until that ends, it
	// acknowledges nothing, and the enrollment would wait out
	// AckTimeout.
	if _, err := primary.Server().Enroll(ctx, "dev-1", testMap(1024, 30, 12, 680)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the follower to apply the enrollment", func() bool {
		return follower.Server().Enrolled("dev-1")
	})
	if n := sessions.Load(); n != 1 {
		t.Fatalf("the follower needed %d sessions to catch up, want 1", n)
	}
}
