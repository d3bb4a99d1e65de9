// Command perfbench is the repository's benchmark. It builds an
// Authenticache deployment in-process from the public facade, drives a
// fixed amount of v2 traffic at it over loopback from a simulated
// fleet, checks every verdict, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload node-auth --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
// wraps the program's seams, records spans, prints the per-layer table,
// writes the spans under .bench_build/perfbench, and reports the
// per-layer metrics. See perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"time"

	authenticache "repro"
	"repro/internal/rng"
)

// workDir holds run directories and span files, under the checkout.
var workDir = filepath.Join(".bench_build", "perfbench")

// runLimit stops a wedged run well before the 180 s a run may take.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: node-auth, cluster-auth or node-rotate")
	seed := flag.Uint64("seed", 1, "workload seed: device maps and operation schedule")
	secs := flag.Int("seconds", 10, "run length; operation counts scale with it")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*secs < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	res, err := run(w.scaled(*secs), *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w workload, seed uint64, secs int, traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	devs := newFleet(w, seed)
	sched := rng.New(seed ^ 0x5eed)
	chunks := make([][]op, w.epochs)
	rounds := make([][]op, w.epochs)
	for e := range chunks {
		chunks[e] = schedule(sched, w, w.chunkOps)
		rounds[e] = schedule(sched, w, w.roundOps)
	}
	var rotations []op
	for range rotatorUpdates {
		for i := range w.rotators {
			rotations = append(rotations, op{dev: w.devices + i, kind: opRemap})
		}
	}
	prov := &provenance{
		Workload: w.name, Seed: seed, Seconds: secs, Trace: traced,
		Devices: w.devices, Rotators: w.rotators, CacheLines: w.lines, Conns: conns, InFlight: inFlight,
		Epochs: w.epochs, OpenRate: w.openRate, GapMs: 1e3 / w.openRate,
	}
	for e := range chunks {
		prov.Ops.count(chunks[e], phaseClosed)
		prov.Ops.count(rotations, phaseRotation)
		prov.Ops.count(rounds[e], phaseOpen)
	}
	hostInfo(prov, dir)
	total0, steal0 := cpuTicks()

	tl := &tally{}
	fsys := newMemFS()
	defer fsys.close()
	dr := &loadgen{devs: devs, fleet: w.devices, tl: tl, fsys: fsys}
	ctx := context.Background()
	values := make(map[string]float64)

	// A traced run first measures the closed loop on a plain system,
	// set up as often as in an untraced run (the process's first
	// system pays for growing the heap) and driven as there, so
	// trace.overhead_pct compares it with the same chunks on the
	// wrapped, recording system.
	var plain closedStats
	if traced {
		sys, _, _, err := setUpRepeated(ctx, w, dr, filepath.Join(dir, "plain"), seed, w.setups)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		for _, ops := range chunks {
			plain.run(ctx, dr, sys, ops)
		}
		err = errors.Join(tl.gateErr(), sys.close(), fsys.removeAll(filepath.Join(dir, "plain")))
		if err != nil {
			return nil, err
		}
		dr.t = newTracer(devs)
	}
	t := dr.t

	// Set-up, several times over; the last system carries the traffic.
	n := w.setups
	if traced {
		n = 1
	}
	sys, setupS, base, err := setUpRepeated(ctx, w, dr, filepath.Join(dir, "setup"), seed, n)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()
	values["setup_s"] = median(setupS)

	// The traffic. An untraced run interleaves its phases epoch by
	// epoch: a closed-loop chunk (throughput and CPU are totals over
	// all chunks, so a collection cycle counts wherever it falls), the
	// rotators' key updates one at a time, and an open-loop round at
	// the fixed rate, timed from each operation's due time. A traced
	// run records spans: its chunks run first, for the overhead, and
	// the per-layer metrics come from the open rounds alone.
	var cl closedStats
	if traced {
		t.setOn(true)
		for _, ops := range chunks {
			cl.run(ctx, dr, sys, ops)
		}
		t.setOn(false)
		t.reset()
		values["trace.overhead_pct"] = 100 * (1 - cl.rate()/plain.rate())
	}
	runtime.GC()
	var win traceWindow
	var remapLat, allLat, allLate []float64
	for e := range rounds {
		if !traced {
			cl.run(ctx, dr, sys, chunks[e])
		}
		if len(rotations) > 0 {
			_, lat := dr.closed(ctx, sys, rotations, 1)
			remapLat = append(remapLat, lat...)
		}
		if err := tl.gateErr(); err != nil {
			return nil, err
		}
		win.open(t, sys)
		lat, late := dr.open(ctx, sys, rounds[e], w.openRate)
		win.close(t)
		if err := tl.gateErr(); err != nil {
			return nil, err
		}
		rs, err := roundStats(rounds[e], lat, late)
		if err != nil {
			return nil, err
		}
		rs.Valid = rs.LateP99 < prov.GapMs
		prov.Rounds = append(prov.Rounds, rs)
		allLate = append(allLate, late...)
		for i, o := range rounds[e] {
			if o.kind != opRemap {
				allLat = append(allLat, lat[i])
			}
		}
	}
	values["rss_peak_mb"] = peakRSSMB()
	values["tx_per_s"] = cl.rate()
	values["cpu_us_per_tx"] = cl.cpuUsPerOp()
	prov.ChunkRates = cl.rates

	use := prov.Rounds[:0:0]
	for _, rs := range prov.Rounds {
		if rs.Valid {
			use = append(use, rs)
		}
	}
	prov.OpenLoopValid = len(use) > 0
	if !prov.OpenLoopValid {
		fmt.Fprintf(os.Stderr, "perfbench: open loop invalid: in every round the generator ran a whole %.3f ms gap late at p99\n", prov.GapMs)
		use = prov.Rounds
	}
	var p50s, lates, remapP50s []float64
	for _, rs := range use {
		p50s, lates = append(p50s, rs.P50), append(lates, rs.LateP99)
		if rs.RemapP50 > 0 {
			remapP50s = append(remapP50s, rs.RemapP50)
		}
	}
	values["auth_p50_ms"] = median(p50s)
	prov.LateP99Ms = median(lates)
	if len(remapLat) > 0 {
		p, _, err := percentile(remapLat, 0.5)
		if err != nil {
			return nil, err
		}
		remapP50s = []float64{1e3 * p}
	}
	values["remap_p50_ms"] = median(remapP50s)

	// The client tally must match the servers' own counters. A try
	// that ended in a typed error may still have reached a verdict on
	// the server whose reply was lost with its connection.
	if err := sys.checkCluster(); err != nil {
		return nil, fmt.Errorf("%w: %v", errGate, err)
	}
	got := tl.snap().sub(base)
	st := sys.stats()
	lostA, lostR := st.Accepted-got.accepted, st.Rejected-got.rejected
	if lostA < 0 || lostR < 0 || lostA+lostR > got.typedErrors || st.Issued < got.accepted+got.rejected {
		return nil, fmt.Errorf("%w: servers count issued=%d accepted=%d rejected=%d, clients saw accepted=%d rejected=%d and %d typed errors",
			errGate, st.Issued, st.Accepted, st.Rejected, got.accepted, got.rejected, got.typedErrors)
	}
	prov.Issued = st.Issued
	prov.Hedged = st.Issued - st.Accepted - st.Rejected - got.typedErrors + lostA + lostR

	if traced {
		// The tail over all open rounds, with at least ten
		// authentications beyond it.
		p99, beyond, err := percentile(allLat, 0.99)
		if err != nil {
			return nil, err
		}
		values["tail.auth_p99_ms"], prov.P99Beyond = 1e3*p99, beyond
		spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := traceMetrics(values, t, sys, spanFile, win, allLate); err != nil {
			return nil, err
		}
	}

	// The crash image: the WAL directory after the last acknowledged
	// operation, before any compaction of the end state.
	image := filepath.Join(dir, "image")
	if err := fsys.copyDir(sys.walDir, image); err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	closed = true
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	n, opens := recoveries, w.opens
	if traced {
		n, opens = 1, 1
	}
	if err := recoverImage(ctx, dr, image, seed, n, opens, values, prov); err != nil {
		return nil, err
	}

	if total1, steal1 := cpuTicks(); total1 > total0 {
		prov.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	c := tl.snap()
	prov.Ops.Attempted, prov.TypedErrors, prov.Retried = c.attempted, c.typedErrors, c.retried
	prov.RecoveredExhausted = dr.exhausted.Load()
	// Every try is an attempt: an operation retried after a typed
	// error counts one failed try.
	values["ok_ratio"] = float64(c.attempted-c.failed) / float64(c.attempted+c.retried)
	defs := endToEnd
	if traced {
		defs = layerMetricDefs()
	}
	metrics, err := report(defs, values)
	if err != nil {
		return nil, err
	}
	if err := printReport(prov, defs, metrics); err != nil {
		return nil, err
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// closedStats accumulates closed-loop chunks.
type closedStats struct {
	ops   int
	wall  time.Duration
	use   usage // summed over the chunks
	rates []float64
}

// run drives one chunk at the fixed in-flight count.
func (c *closedStats) run(ctx context.Context, dr *loadgen, s *system, ops []op) {
	u0 := sampleUsage()
	elapsed, _ := dr.closed(ctx, s, ops, inFlight)
	c.use = c.use.plus(sampleUsage().minus(u0))
	c.wall += elapsed
	c.ops += len(ops)
	c.rates = append(c.rates, float64(len(ops))/elapsed.Seconds())
}

// rate is operations per second over all chunks.
func (c *closedStats) rate() float64 { return float64(c.ops) / c.wall.Seconds() }

// cpuUsPerOp is process CPU per operation over all chunks.
func (c *closedStats) cpuUsPerOp() float64 { return c.use.since(usage{}, c.ops).cpuUsPerOp }

// traceWindow sums the counters, resource use and follower lag of the
// open rounds of a traced run, leaving out everything between them.
type traceWindow struct {
	c   counterSnap
	use usage
	lag []float64

	c0   counterSnap
	u0   usage
	lags *lagSampler
}

func (w *traceWindow) open(t *tracer, s *system) {
	if t == nil {
		return
	}
	w.c0 = t.c.snap()
	w.lags = startLagSampler(s.nodes)
	w.u0 = sampleUsage()
	t.setOn(true)
}

func (w *traceWindow) close(t *tracer) {
	if t == nil {
		return
	}
	t.setOn(false)
	w.use = w.use.plus(sampleUsage().minus(w.u0))
	w.c = w.c.plus(t.c.snap().sub(w.c0))
	w.lag = append(w.lag, w.lags.stop()...)
}

// roundStats summarises one open-loop round: the p50 of its
// authentications and of its key updates, and the p99 of the
// generator's lateness, in milliseconds.
func roundStats(ops []op, lat, late []float64) (roundStat, error) {
	var authLat, remapLat []float64
	for i, o := range ops {
		if o.kind == opRemap {
			remapLat = append(remapLat, lat[i])
		} else {
			authLat = append(authLat, lat[i])
		}
	}
	var rs roundStat
	p50, _, err := percentile(authLat, 0.5)
	if err != nil {
		return rs, err
	}
	rs = roundStat{P50: 1e3 * p50, LateP99: 1e3 * nearestRank(late, 0.99)}
	if len(remapLat) > 0 {
		p, _, err := percentile(remapLat, 0.5)
		if err != nil {
			return rs, err
		}
		rs.RemapP50 = 1e3 * p
	}
	return rs, nil
}

// setUpRepeated runs set-up n times, each in a fresh directory under
// dir and each system closed before the next is built. It returns the
// last system, every set-up's time, and the client tally as the last
// set-up began.
func setUpRepeated(ctx context.Context, w workload, dr *loadgen, dir string, seed uint64, n int) (*system, []float64, tallySnap, error) {
	var sys *system
	var times []float64
	var base tallySnap
	for i := 0; i < n; i++ {
		if sys != nil {
			if err := errors.Join(sys.close(), dr.fsys.removeAll(filepath.Join(dir, strconv.Itoa(i-1)))); err != nil {
				return nil, nil, base, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
		}
		base = dr.tl.snap()
		start := time.Now()
		s, err := setUp(ctx, w, dr, filepath.Join(dir, strconv.Itoa(i)), seed)
		if err != nil {
			return nil, nil, base, fmt.Errorf("set-up %d: %w", i, err)
		}
		sys = s
		times = append(times, time.Since(start).Seconds())
	}
	return sys, times, base, nil
}

// setUp builds a system, enrolls the fleet, runs the initial
// compaction, and warms every device's key caches on all its
// authentication planes. This is the work setup_s times.
func setUp(ctx context.Context, w workload, dr *loadgen, dir string, seed uint64) (*system, error) {
	build := buildNode
	if w.cluster {
		build = buildCluster
	}
	s, err := build(dir, seed, dr.fsys, dr.t)
	if err != nil {
		return nil, err
	}
	err = dr.enroll(ctx, s.enroller)
	if err == nil && s.compact != nil {
		err = s.compact()
	}
	if err == nil {
		err = s.caughtUp()
	}
	if err == nil {
		err = s.connect(ctx, dr.t)
	}
	if err == nil {
		err = dr.warm(ctx, s)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// recoverImage recovers the crash image in rounds, after traffic and
// with nothing else running. Each round opens a fresh copy of the
// image opens times; recover_s, the median over every open, times
// OpenDurableServer: loading the snapshot and replaying the log tail.
// Every open starts with the heap's free memory returned to the
// system, as a restarted process starts: otherwise how many of the
// recovered state's pages fault in depends on how much the runtime's
// background scavenger happened to release since the last open.
// A round's last recovered server is closed, and compact_s, the median
// over the rounds, times that Close, which compacts the end state into
// a final snapshot; disk_mb is the directory after it. The others are
// released without a compaction. The last recovered server must
// authenticate every device once, each with its last acknowledged key.
//
// A recovered server salts its challenge stream with the WAL's
// CommittedSeq, which counts only the records committed since Open and
// so is 0 on every boot: it redraws the stream of the server that
// wrote the image (a node, or the cluster primary, whose salt is also
// 0). A device whose history lines up with those draws is refused as
// exhausted while nearly all of its pairs are fresh. The check retries
// such a device, up to maxWarm tries, and reports every refusal: in
// ok_ratio, in provenance (recovered_exhausted) and on stderr.
func recoverImage(ctx context.Context, dr *loadgen, image string, seed uint64, rounds, opens int, values map[string]float64, prov *provenance) error {
	var compactS []float64
	for i := 0; i < rounds; i++ {
		for j := 0; j < opens; j++ {
			dir := fmt.Sprintf("%s-%d-%d", image, i, j)
			if err := dr.fsys.copyDir(image, dir); err != nil {
				return err
			}
			debug.FreeOSMemory()
			start := time.Now()
			ds, err := authenticache.OpenDurableServer(dir, authenticache.DefaultServerConfig(), serverSeed(seed), authenticache.WALOptions{FS: dr.fsys})
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			prov.RecoverS = append(prov.RecoverS, time.Since(start).Seconds())
			if j < opens-1 {
				if err := release(ds, dir); err != nil {
					return err
				}
			} else {
				if i == rounds-1 {
					if err := checkRecovered(ctx, dr, ds.Server); err != nil {
						ds.Close()
						return err
					}
				}
				runtime.GC()
				start = time.Now()
				if err := ds.Close(); err != nil {
					return fmt.Errorf("compact recovered server: %w", err)
				}
				compactS = append(compactS, time.Since(start).Seconds())
				size, err := dr.fsys.dirBytes(dir)
				if err != nil {
					return err
				}
				values["disk_mb"] = float64(size) / (1 << 20)
			}
			if err := dr.fsys.removeAll(dir); err != nil {
				return err
			}
		}
	}
	prov.CompactS = compactS
	values["recover_s"] = median(prov.RecoverS)
	values["compact_s"] = median(compactS)
	return nil
}

// release closes a recovered server without compacting it. With its
// directory gone from the host, Close's compaction fails before it
// serialises anything, and Close still releases the log.
func release(ds *authenticache.DurableServer, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := ds.Close(); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("release recovered server: %w", err)
	}
	return nil
}

// checkRecovered authenticates every device once against srv.
func checkRecovered(ctx context.Context, dr *loadgen, srv *authenticache.Server) error {
	l, err := listen()
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &system{addr: l.Addr().String(), servers: []*authenticache.Server{srv}, cancel: cancel}
	s.serve(sctx, authenticache.NewWireServer(srv), l)
	defer s.close()
	if err := s.connect(ctx, nil); err != nil {
		return err
	}
	before := srv.Stats()
	dr.retryExhausted = true
	dr.each(ctx, s, opAuth, inFlight)
	dr.retryExhausted = false
	if n := dr.exhausted.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the recovered server refused %d tries as exhausted: it redraws its pre-crash challenge stream\n", n)
	}
	if err := dr.tl.gateErr(); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if got := srv.Stats().Accepted - before.Accepted; got != int64(len(dr.devs)) {
		return fmt.Errorf("%w: recovered server accepted %d of %d devices", errGate, got, len(dr.devs))
	}
	return nil
}

// traceMetrics derives the per-layer metrics from the open rounds'
// spans, counters and runtime statistics, prints the per-layer table
// and writes the spans out. late holds the generator's lateness for
// every open-round operation, in seconds.
func traceMetrics(values map[string]float64, t *tracer, sys *system, spanFile string, win traceWindow, late []float64) error {
	t.mu.Lock()
	spans, txs := t.spans, t.txs
	t.mu.Unlock()
	nodes := buildTree(spans)
	r := analyse(nodes, txs)
	r.print(os.Stdout)
	if err := writeSpans(spanFile, nodes); err != nil {
		return err
	}

	nops := len(late)
	c := win.c
	u := win.use.since(usage{}, nops)
	values["wire.self_us"] = r.selfPerAuth("client.auth")
	values["wire.bytes_per_tx"] = float64(c.clientBytes) / float64(nops)
	values["wire.server_writes_per_tx"] = float64(c.serverWrites) / float64(nops)
	values["auth.begin_us"] = r.mean("server.begin")
	values["auth.begin_rotated_us"] = r.mean("server.begin" + rotatedSuffix)
	values["auth.finish_us"] = r.mean("server.finish", "primary.finish", "follower.finish")
	values["auth.remap_us"] = 0
	if r.remaps > 0 {
		values["auth.remap_us"] = r.sum("server.remap", "primary.remap", "follower.remap") / float64(r.remaps)
	}
	values["device.respond_us"] = r.mean("device.respond")
	values["device.remap_us"] = r.mean("device.remap")
	values["wal.journal_wait_us"] = r.mean("wal.journal")
	values["wal.syncs_per_tx"] = float64(c.walSyncs) / float64(nops)
	values["wal.bytes_per_tx"] = float64(c.walBytes) / float64(nops)
	values["wal.sync_us"] = 0
	if c.walSyncs > 0 {
		values["wal.sync_us"] = float64(c.walSyncNs) / float64(c.walSyncs) / 1e3
	}
	values["cluster.begin_primary_us"] = r.mean("primary.begin", "primary.begin"+rotatedSuffix)
	values["cluster.begin_follower_us"] = r.mean("follower.begin", "follower.begin"+rotatedSuffix)
	values["cluster.repl_bytes_per_tx"] = float64(c.replBytes) / 2 / float64(nops)
	values["cluster.lag_p99_records"] = 0
	if len(win.lag) > 0 {
		values["cluster.lag_p99_records"] = slices.Max(win.lag)
		if v, _, err := percentile(win.lag, 0.99); err == nil {
			values["cluster.lag_p99_records"] = v
		}
	}
	values["router.hop_us"] = r.selfPerAuth("router.begin", "router.finish")
	values["router.begin_attempts_per_auth"] = 0
	if r.auths > 0 && sys.nodes != nil {
		values["router.begin_attempts_per_auth"] = float64(c.relayBegins) / float64(r.auths)
	}
	values["runtime.gc_cycles"] = u.gcCycles
	values["runtime.gc_pause_ms"] = u.gcPauseMs
	values["runtime.alloc_kb_per_tx"] = u.allocKBPerOp
	lateP99, _, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	values["loadgen.late_p99_ms"] = 1e3 * lateP99
	values["trace.unexplained_pct"] = r.unexplainedPct()
	if u := values["trace.unexplained_pct"]; u > 15 {
		fmt.Printf("finding: %.1f%% of the client span is covered by no seam span (above the ~15%% ROADMAP accepts)\n", u)
	}
	return nil
}

// writeSpans writes the analysed spans as JSON lines; parent is the
// line index of the parent span, -1 at a root.
func writeSpans(path string, nodes []tnode) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, n := range nodes {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			Tx      uint64 `json:"tx"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
		}{n.name, n.tx, n.start, n.end, n.parent}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints the run's provenance and a metric table ahead of
// the result line.
func printReport(p *provenance, defs []metricDef, m map[string]metricValue) error {
	b, err := json.Marshal(map[string]any{"provenance": p})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
		fmt.Printf("%-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
	return nil
}
