package auth

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/fault"
	"repro/internal/rng"
)

// BenchmarkWireTxPerConn measures authentication transactions per
// second over ONE TCP connection — the number the framing actually
// changes. The client multiplexes depth concurrent streams over the
// connection and batches frame writes, so depth>1 amortises both the
// codec and the syscalls.
//
// The local/* variants run over raw loopback and isolate per-
// transaction CPU (codec + framing + auth core). The rtt=1ms/*
// variants route the client through a fault.DelayConn that models
// 1 ms of round-trip propagation — the regime the framing was built
// for: depth transactions in flight hide the RTT. The v2 in the row
// names is the framing version; the rows keep their names so
// BENCH_wire.json stays comparable across commits.
//
// Challenge pairs burn forever (the no-reuse registry), so CI runs
// this with a fixed -benchtime iteration count rather than wall time;
// scripts/bench_wire.sh regenerates BENCH_wire.json from it.
func BenchmarkWireTxPerConn(b *testing.B) {
	b.Run("local/v2/depth=1", func(b *testing.B) { benchWireTx(b, 1, 0) })
	b.Run("local/v2/depth=8", func(b *testing.B) { benchWireTx(b, 8, 0) })
	b.Run("local/v2/depth=64", func(b *testing.B) { benchWireTx(b, 64, 0) })
	const rtt = time.Millisecond
	b.Run("rtt=1ms/v2/depth=8", func(b *testing.B) { benchWireTx(b, 8, rtt) })
	b.Run("rtt=1ms/v2/depth=16", func(b *testing.B) { benchWireTx(b, 16, rtt) })
	b.Run("rtt=1ms/v2/depth=64", func(b *testing.B) { benchWireTx(b, 64, rtt) })
}

// benchLines is the bench geometry: 2048 lines keeps the no-reuse
// registry in its dense-bitset representation (2.1M pairs, 256 KiB
// per plane) so burn bookkeeping stays cache-resident even with 64
// lanes live. Capacity is ample — 2000 iterations of 128-bit
// challenges burn ~12% of one plane's pair space on the single-lane
// variants and a fraction of that per lane elsewhere.
const benchLines = 2048

func benchWireTx(b *testing.B, depth int, rtt time.Duration) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.ChallengeBits = 128
	// A time-based -benchtime (e.g. `make bench`) can ramp b.N past
	// the pair space of the busiest lane's registry; burned pairs
	// never come back, so the run would die with ErrExhausted rather
	// than measure anything. Keep the heaviest lane under half its
	// plane's budget.
	maxPerLane := int(crp.PossibleCRPs(benchLines)) / cfg.ChallengeBits / 2
	if b.N/depth+1 > maxPerLane {
		b.Skipf("b.N=%d would exhaust the CRP registry; use a fixed -benchtime (scripts/bench_wire.sh)", b.N)
	}
	// Never advise a remap mid-benchmark: a rotation would splice a
	// second transaction into the timed loop.
	cfg.RemapAfterCRPs = 1 << 31
	srv := NewServer(cfg, 99)

	// One enrolled device per lane: lanes never contend on a device's
	// field cache, so the wire is the only shared resource. See
	// benchLines for the geometry choice.
	g := errormap.NewGeometry(benchLines)
	r := rng.New(1234)
	responders := make([]*Responder, depth)
	for i := range responders {
		m := errormap.NewMap(g)
		m.AddPlane(680, errormap.RandomPlane(g, 100, r))
		id := ClientID(fmt.Sprintf("bench-%02d", i))
		key, err := srv.Enroll(ctx, id, m)
		if err != nil {
			b.Fatal(err)
		}
		responders[i] = NewResponder(id, NewSimDevice(m), key)
	}

	ws := NewWireServer(srv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ws.Serve(ctx, l)
	defer ws.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	nc := net.Conn(conn)
	if rtt > 0 {
		// One delayed direction gives the full round-trip time: the
		// return path is direct.
		nc = fault.NewDelayConn(conn, rtt)
	}
	wc, err := NewWireClient(nc)
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()

	// Warm every lane outside the timer: the first transaction per
	// device computes and caches its logical distance field.
	for _, r := range responders {
		if ok, err := wc.Authenticate(ctx, r); err != nil || !ok {
			b.Fatalf("warmup: ok=%v err=%v", ok, err)
		}
	}

	b.ResetTimer()
	errs := make(chan error, depth)
	var wg sync.WaitGroup
	for lane := 0; lane < depth; lane++ {
		n := b.N / depth
		if lane < b.N%depth {
			n++
		}
		wg.Add(1)
		go func(lane, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ok, err := wc.Authenticate(ctx, responders[lane])
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- fmt.Errorf("lane %d: genuine device rejected", lane)
					return
				}
			}
		}(lane, n)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}
