package authenticache_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/errormap"
	"repro/internal/fault"
	"repro/internal/rng"
)

// Chaos tests: mixed enroll/verify/remap traffic driven through the
// public API while the fault package injects network and disk
// failures, asserting the system's core invariants hold under fire:
//
//   - no forged accept: an impostor device is never authenticated,
//     faults or not;
//   - no enrolled client is lost: after the storm, crash-recovery
//     restores every client whose enrollment was reported durable;
//   - every surfaced error is typed: callers always get an *AuthError
//     they can classify, never a bare transport string;
//   - graceful degradation: overload sheds with a retryable verdict
//     instead of deadlocking or collapsing.
//
// All fault schedules derive from chaosSeed, so a failure replays
// exactly; scripts/check.sh runs these under -race.
const chaosSeed = 0xC4A05

// chaosMap builds a deterministic synthetic error map.
func chaosMap(lines, k int, seed uint64, vdds ...int) *errormap.Map {
	g := errormap.NewGeometry(lines)
	m := errormap.NewMap(g)
	r := rng.New(seed)
	for _, v := range vdds {
		m.AddPlane(v, errormap.RandomPlane(g, k, r))
	}
	return m
}

// chaosPolicy retries hard and fast: the storm is the point, so the
// budget is generous while the delays stay test-sized.
func chaosPolicy(seed uint64) authenticache.RetryPolicy {
	return authenticache.RetryPolicy{
		MaxAttempts: 16,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        seed,
	}
}

// TestChaosMixedTrafficUnderFaults runs four genuine clients and one
// impostor against a durable server whose disk randomly fails fsyncs
// and truncates writes, over a wire that drops ~10% of operations.
// Resilient clients must push ≥99% of transactions through, the
// impostor must never be accepted, every error must be a typed
// *AuthError, and a post-storm crash-recovery must restore every
// client.
func TestChaosMixedTrafficUnderFaults(t *testing.T) {
	const (
		clients   = 4
		opsPerCli = 25
	)
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := fault.NewFS(nil, fault.FSPlan{
		SyncErrProb:    0.05,
		ShortWriteProb: 0.02,
		CrashAtByte:    -1,
		Seed:           chaosSeed,
	})
	// The default 256-bit challenges: the impostor gate asserts zero
	// accepts, which a 64-bit challenge cannot back (an impostor passes
	// one with probability 4.4e-4 per attempt, a 256-bit one with
	// 3.4e-12).
	cfg := authenticache.DefaultServerConfig()
	walOpt := authenticache.WALOptions{
		FS:         ffs,
		FlushBatch: 8,
	}

	// Open and enroll on a calm disk; the storm starts once traffic
	// does.
	ffs.SetArmed(false)
	d, err := authenticache.OpenDurableServer(dir, cfg, chaosSeed, walOpt)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[authenticache.ClientID]authenticache.Key, clients)
	responders := make([]*authenticache.Responder, clients)
	for i := 0; i < clients; i++ {
		id := authenticache.ClientID(fmt.Sprintf("chaos-%d", i))
		m := chaosMap(4096, 80, chaosSeed+uint64(i), 680, 700)
		key, err := d.Enroll(ctx, id, m, 700)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = key
		responders[i] = authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
	}
	ffs.SetArmed(true)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.NewListener(l, fault.ConnPlan{DropProb: 0.1, Seed: chaosSeed})
	ws := authenticache.NewWireServer(d.Server)
	go ws.Serve(ctx, fl)
	defer ws.Close()
	addr := l.Addr().String()

	var (
		okOps, failedOps atomic.Uint64
		untypedErr       atomic.Uint64
		forged           atomic.Uint64
		retries          atomic.Uint64
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := responders[i]
			rc, err := authenticache.DialResilient(ctx, addr, chaosPolicy(chaosSeed+uint64(i)))
			if err != nil {
				t.Errorf("client %d: dial: %v", i, err)
				return
			}
			defer rc.Close()
			for op := 0; op < opsPerCli; op++ {
				var err error
				var accepted bool
				if op%7 == 6 {
					err = rc.Remap(ctx, r)
					accepted = err == nil
				} else {
					accepted, err = rc.Authenticate(ctx, r)
				}
				switch {
				case err != nil:
					failedOps.Add(1)
					var ae *authenticache.AuthError
					if !errors.As(err, &ae) {
						untypedErr.Add(1)
						t.Errorf("client %d op %d: untyped error %T: %v", i, op, err, err)
					}
				case !accepted:
					// A genuine device rejected is an invariant
					// failure just like a forged accept.
					failedOps.Add(1)
					t.Errorf("client %d op %d: genuine device rejected", i, op)
				default:
					okOps.Add(1)
				}
			}
			retries.Add(rc.Stats().Retries)
		}(i)
	}

	// The impostor hammers a genuine identity with wrong silicon (and
	// the stale initial key, since it cannot observe rotations). Every
	// verdict must be a rejection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrong := chaosMap(4096, 80, chaosSeed+999, 680, 700)
		imp := authenticache.NewResponder("chaos-0", authenticache.NewSimDevice(wrong), keys["chaos-0"])
		rc, err := authenticache.DialResilient(ctx, addr, chaosPolicy(chaosSeed+99))
		if err != nil {
			t.Errorf("impostor dial: %v", err)
			return
		}
		defer rc.Close()
		for op := 0; op < opsPerCli; op++ {
			accepted, err := rc.Authenticate(ctx, imp)
			if accepted {
				forged.Add(1)
				t.Errorf("impostor accepted on op %d", op)
			}
			if err != nil {
				var ae *authenticache.AuthError
				if !errors.As(err, &ae) {
					untypedErr.Add(1)
					t.Errorf("impostor op %d: untyped error %T: %v", op, err, err)
				}
			}
		}
	}()
	wg.Wait()

	total := okOps.Load() + failedOps.Load()
	if total != clients*opsPerCli {
		t.Fatalf("accounted %d ops, want %d", total, clients*opsPerCli)
	}
	if ratio := float64(okOps.Load()) / float64(total); ratio < 0.99 {
		t.Errorf("eventual success ratio %.4f < 0.99 (ok=%d failed=%d)",
			ratio, okOps.Load(), failedOps.Load())
	}
	if forged.Load() != 0 {
		t.Errorf("%d forged accepts", forged.Load())
	}
	if untypedErr.Load() != 0 {
		t.Errorf("%d untyped errors surfaced", untypedErr.Load())
	}
	if retries.Load() == 0 {
		t.Error("storm produced zero retries; fault injection did not bite")
	}
	t.Logf("chaos: ok=%d failed=%d retries=%d", okOps.Load(), failedOps.Load(), retries.Load())

	// Calm the disk, checkpoint, and recover into a fresh server: no
	// enrolled client may be lost, and each must still authenticate
	// with whatever key its device holds after the storm's rotations.
	ws.Close()
	ffs.SetArmed(false)
	if err := d.Close(); err != nil {
		t.Fatalf("close after storm: %v", err)
	}
	d2, err := authenticache.OpenDurableServer(dir, cfg, chaosSeed+1, authenticache.WALOptions{
		FlushBatch: 8,
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer d2.Close()
	for i, r := range responders {
		id := authenticache.ClientID(fmt.Sprintf("chaos-%d", i))
		if !d2.Enrolled(id) {
			t.Fatalf("client %q lost across recovery", id)
		}
		ch, err := d2.IssueChallenge(ctx, id)
		if err != nil {
			t.Fatalf("post-recovery challenge for %q: %v", id, err)
		}
		resp, err := r.Respond(ch)
		if err != nil {
			t.Fatalf("post-recovery respond for %q: %v", id, err)
		}
		ok, err := d2.Verify(ctx, id, ch.ID, resp)
		if err != nil {
			t.Fatalf("post-recovery verify for %q: %v", id, err)
		}
		if !ok {
			t.Errorf("client %q rejected after recovery", id)
		}
	}
}

// TestChaosOverloadShedsGracefully saturates a server capped at two
// in-flight transactions with eight concurrent clients. Shedding must
// surface as retryable CodeUnavailable verdicts that the resilient
// clients ride out: every transaction eventually succeeds, some were
// shed, and nothing deadlocks.
func TestChaosOverloadShedsGracefully(t *testing.T) {
	const (
		clients   = 8
		opsPerCli = 5
	)
	m := chaosMap(4096, 80, chaosSeed, 680)
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 64
	srv := authenticache.NewServer(cfg, chaosSeed)
	key, err := srv.Enroll(ctx, "overload-dev", m)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := authenticache.NewWireServerConfig(srv, authenticache.WireConfig{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ctx, l)
	defer ws.Close()

	var shed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := authenticache.NewResponder("overload-dev", authenticache.NewSimDevice(m), key)
			rc, err := authenticache.DialResilient(ctx, l.Addr().String(), chaosPolicy(chaosSeed+uint64(i)))
			if err != nil {
				t.Errorf("client %d: dial: %v", i, err)
				return
			}
			defer rc.Close()
			for op := 0; op < opsPerCli; op++ {
				ok, err := rc.Authenticate(ctx, r)
				if err != nil {
					t.Errorf("client %d op %d: %v", i, op, err)
					continue
				}
				if !ok {
					t.Errorf("client %d op %d: genuine device rejected", i, op)
				}
			}
			shed.Add(rc.Stats().Unavailable)
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Error("no transaction was ever shed; overload cap did not engage")
	}
	t.Logf("overload: %d shed responses ridden out", shed.Load())
}

// TestChaosWALCrashSweepRecoversEveryClient power-fails the journal at
// a sweep of byte offsets across an enrollment workload. For every cut
// point, each enrollment the server reported as durable must survive
// recovery with its exact key and still authenticate; clients whose
// enrollment failed at the crash may be absent but must never be
// half-present with a different key.
func TestChaosWALCrashSweepRecoversEveryClient(t *testing.T) {
	const (
		fleet = 12
		cuts  = 40
	)
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 64
	walOpt := func(fs *fault.FS) authenticache.WALOptions {
		return authenticache.WALOptions{
			FS:         fs,
			FlushBatch: 8,
		}
	}
	maps := make([]*errormap.Map, fleet)
	for i := range maps {
		maps[i] = chaosMap(1024, 30, chaosSeed+uint64(i), 680)
	}
	enrollFleet := func(srv *authenticache.DurableServer) map[authenticache.ClientID]authenticache.Key {
		durable := make(map[authenticache.ClientID]authenticache.Key)
		for i := 0; i < fleet; i++ {
			id := authenticache.ClientID(fmt.Sprintf("sweep-%d", i))
			key, err := srv.Enroll(ctx, id, maps[i])
			if err == nil {
				durable[id] = key
			}
		}
		return durable
	}

	// Clean run on a counting (but fault-free) filesystem to measure
	// the workload's total journal footprint.
	clean := fault.NewFS(nil, fault.FSPlan{CrashAtByte: -1, Seed: chaosSeed})
	d, err := authenticache.OpenDurableServer(filepath.Join(t.TempDir(), "clean"), cfg, chaosSeed, walOpt(clean))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(enrollFleet(d)); got != fleet {
		t.Fatalf("clean run enrolled %d/%d", got, fleet)
	}
	totalBytes := clean.Written()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if totalBytes == 0 {
		t.Fatal("clean run wrote no journal bytes")
	}

	for cut := 0; cut < cuts; cut++ {
		crashAt := totalBytes * int64(cut) / int64(cuts)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		ffs := fault.NewFS(nil, fault.FSPlan{CrashAtByte: crashAt, Seed: chaosSeed})
		var durable map[authenticache.ClientID]authenticache.Key
		d, err := authenticache.OpenDurableServer(dir, cfg, chaosSeed, walOpt(ffs))
		if err == nil {
			durable = enrollFleet(d)
			// No Close: the device is dead. Recovery reads the bytes
			// that made it to the (real) disk below the fault layer.
		}

		rec, err := authenticache.OpenDurableServer(dir, cfg, chaosSeed+1, authenticache.WALOptions{
			FlushBatch: 8,
		})
		if err != nil {
			t.Fatalf("cut %d (byte %d): recovery open: %v", cut, crashAt, err)
		}
		for id, key := range durable {
			if !rec.Enrolled(id) {
				t.Fatalf("cut %d (byte %d): durable client %q lost", cut, crashAt, id)
			}
			got, err := rec.CurrentKey(id)
			if err != nil {
				t.Fatalf("cut %d: current key for %q: %v", cut, id, err)
			}
			if got != key {
				t.Fatalf("cut %d (byte %d): client %q recovered with wrong key", cut, crashAt, id)
			}
		}
		// One recovered client must still complete a round trip.
		for id := range durable {
			var idx int
			fmt.Sscanf(string(id), "sweep-%d", &idx)
			r := authenticache.NewResponder(id, authenticache.NewSimDevice(maps[idx]), durable[id])
			ch, err := rec.IssueChallenge(ctx, id)
			if err != nil {
				t.Fatalf("cut %d: challenge for %q: %v", cut, id, err)
			}
			resp, err := r.Respond(ch)
			if err != nil {
				t.Fatalf("cut %d: respond for %q: %v", cut, id, err)
			}
			if ok, err := rec.Verify(ctx, id, ch.ID, resp); err != nil || !ok {
				t.Fatalf("cut %d: recovered client %q failed auth: ok=%v err=%v", cut, id, ok, err)
			}
			break
		}
		rec.Close()
	}
}
