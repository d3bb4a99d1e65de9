package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/crp"
	"repro/internal/rng"
	"repro/internal/wire"
)

func TestPercentileTenBeyond(t *testing.T) {
	samples := func(n, failures int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		for i := 0; i < failures; i++ {
			s[i] = math.Inf(1)
		}
		return s
	}
	v, beyond, err := percentile(samples(1000, 0), 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond (err %v), want 990 with 10", v, beyond, err)
	}
	if _, beyond, err := percentile(samples(999, 0), 0.99); err == nil {
		t.Fatalf("p99 of 999 samples has %d beyond and should be refused", beyond)
	}
	// Failures count as +Inf: ten of them stay beyond the p99, an
	// eleventh becomes the p99.
	if v, _, err := percentile(samples(1000, 10), 0.99); err != nil || math.IsInf(v, 1) {
		t.Fatalf("p99 with 10 failures = %v (err %v), want finite", v, err)
	}
	if v, _, err := percentile(samples(1000, 11), 0.99); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 failures = %v (err %v), want +Inf", v, err)
	}
	// A median needs no samples beyond it.
	if v, _, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || v != 2 {
		t.Fatalf("p50 of {1,2,3} = %v (err %v), want 2", v, err)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// A hedged BeginAuth: the router's span has two concurrent
	// attempts, one on the owner and one on its successor. The losing
	// attempt outlives the router span and so finds no parent.
	const tx = 7
	spans := []span{
		{name: "client.auth", tx: tx, start: 0, end: 1000},
		{name: "router.begin", tx: tx, start: 100, end: 600},
		{name: "follower.begin", tx: tx, start: 150, end: 500},
		{name: "primary.begin", tx: tx, start: 300, end: 550},
		{name: "follower.begin", tx: tx, start: 400, end: 700},
		{name: "device.respond", tx: tx, start: 650, end: 700},
		{name: "router.finish", tx: tx, start: 750, end: 900},
		{name: "primary.finish", tx: tx, start: 800, end: 850},
	}
	nodes := buildTree(spans)
	want := []struct {
		parent int
		self   int64
	}{
		{-1, 1000 - 500 - 50 - 150}, // covered by router.begin, device, router.finish
		{0, 500 - 400},              // attempts cover [150,550] once, not 350+250
		{1, 350},
		{1, 250},
		{-1, 300},
		{0, 50},
		{0, 100},
		{6, 50},
	}
	for i, w := range want {
		if nodes[i].parent != w.parent || nodes[i].self != w.self {
			t.Errorf("%s [%d,%d]: parent %d self %d, want parent %d self %d",
				nodes[i].name, nodes[i].start, nodes[i].end, nodes[i].parent, nodes[i].self, w.parent, w.self)
		}
	}
	r := analyse(nodes, map[uint64]txInfo{tx: {kind: opAuth}})
	if r.orphans != 1 {
		t.Errorf("orphans = %d, want 1", r.orphans)
	}
	if got := r.unexplainedPct(); got != 30 {
		t.Errorf("unexplained = %v%%, want 30%%", got)
	}
	if got := r.selfPerAuth("router.begin", "router.finish"); got != 0.2 {
		t.Errorf("router self per auth = %v us, want 0.2", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	if got := covered(100, 200, [][2]int64{{50, 120}, {110, 130}, {190, 250}}); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Fatalf("covered with no children = %d", got)
	}
}

func TestUsageDelta(t *testing.T) {
	a := usage{cpu: 2 * time.Second, alloc: 1 << 20, gcs: 3, pauseNs: 1e6}
	b := usage{cpu: 2*time.Second + 500*time.Millisecond, alloc: 1<<20 + 2048*1000, gcs: 5, pauseNs: 3.5e6}
	d := b.since(a, 1000)
	if d.cpuUsPerOp != 500 || d.allocKBPerOp != 2 || d.gcCycles != 2 || d.gcPauseMs != 2.5 {
		t.Fatalf("delta = %+v, want 500 us/op, 2 KiB/op, 2 cycles, 2.5 ms", d)
	}
	// Deltas over consecutive chunks add up to the delta over all of
	// them.
	mid := usage{cpu: 2*time.Second + 100*time.Millisecond, alloc: 1<<20 + 1000, gcs: 4, pauseNs: 2e6}
	if sum := mid.minus(a).plus(b.minus(mid)); sum != b.minus(a) {
		t.Fatalf("chunk deltas sum to %+v, want %+v", sum, b.minus(a))
	}
	// Real snapshots move forward.
	u0 := sampleUsage()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	u1 := sampleUsage()
	if u1.alloc-u0.alloc < 64*4096 || u1.cpu < u0.cpu || len(sink) != 64 {
		t.Fatalf("allocated %d bytes, cpu %v -> %v", u1.alloc-u0.alloc, u0.cpu, u1.cpu)
	}
}

func TestMemFS(t *testing.T) {
	m := newMemFS()
	defer m.close()
	dir := t.TempDir()
	name := dir + "/wal-1.log"
	f, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); err == nil {
		t.Fatal("exclusive create of an existing file succeeded")
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("!")); err != nil || f.Sync() != nil {
		t.Fatal(err)
	}
	// A second handle reads from its own offset.
	g, err := m.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(g); err != nil || string(b) != "hello!" {
		t.Fatalf("read %q (%v)", b, err)
	}
	if err := m.copyDir(dir, dir+"-copy"); err != nil {
		t.Fatal(err)
	}
	if b, err := m.ReadFile(dir + "-copy/wal-1.log"); err != nil || string(b) != "hello!" {
		t.Fatalf("copy holds %q (%v)", b, err)
	}
	if n, err := m.dirBytes(dir); err != nil || n != 6 {
		t.Fatalf("dirBytes = %d (%v), want 6", n, err)
	}
	if err := m.removeAll(dir + "-copy"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(name); err != nil {
		t.Fatal(err)
	}
	if entries, err := m.ReadDir(dir); err != nil || len(entries) != 0 || len(m.files) != 0 {
		t.Fatalf("left %v and %d files (%v)", entries, len(m.files), err)
	}
}

func TestOpCounterAcrossWrites(t *testing.T) {
	pre := wire.Preamble()
	stream := append([]byte(nil), pre[:]...)
	stream = wire.AppendClientID(stream, 1, wire.OpAuthenticate, "dev-0001")
	stream = wire.AppendResponse(stream, 1, 9, &crp.Response{Bits: []byte{1, 2, 3}, N: 24})
	stream = wire.AppendClientID(stream, 3, wire.OpRemap, "dev-0002")
	stream = wire.AppendClientID(stream, 5, wire.OpAuthenticate, "dev-0003")
	for _, step := range []int{1, 3, 7, len(stream)} {
		var n atomic.Int64
		c := newOpCounter(wire.OpAuthenticate, &n)
		for i := 0; i < len(stream); i += step {
			c.feed(stream[i:min(i+step, len(stream))])
		}
		if n.Load() != 2 {
			t.Errorf("writes of %d bytes: counted %d BeginAuth frames, want 2", step, n.Load())
		}
	}
}

func TestScheduleIsFixedWork(t *testing.T) {
	w := workload{devices: 32, remapEvery: 3}
	var kinds [3]int
	for seed := uint64(1); seed <= 3; seed++ {
		ops := schedule(rng.New(seed), w, 1560)
		var got [3]int
		last := make(map[int]int)
		for i, o := range ops {
			got[o.kind]++
			if j, ok := last[o.dev]; ok && i-j < inFlight {
				t.Fatalf("seed %d: device %d at %d and %d, closer than %d", seed, o.dev, j, i, inFlight)
			}
			last[o.dev] = i
		}
		if seed > 1 && got != kinds {
			t.Fatalf("seed %d does %v operations by kind, seed 1 %v", seed, got, kinds)
		}
		kinds = got
	}
	if kinds[opRemap] != 520 || kinds[opImpostor] != 20 {
		t.Fatalf("kinds = %v, want 520 key updates and 20 impostors", kinds)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 || m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Command) == 0 || len(m.Command) > 32 {
		t.Fatalf("BENCHMARK.json outside its limits")
	}
	if !reflect.DeepEqual(m.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", m.Paths)
	}

	// Every workload the program runs, each with a one-line reason.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q (%q) does not match the program's %q", i, w.Name, w.Why, workloads[i].name)
		}
	}

	// The metric lists are the program's, with valid names, units and
	// bounds; setup_s has the largest bound.
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's metrics:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, layerMetricDefs()) {
		t.Errorf("per_layer differs from layers.json")
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	var setupBound float64
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric %+v", d)
		}
		seen[d.Name] = true
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range m.EndToEnd {
		if d.Name != "setup_s" && d.Bound >= setupBound {
			t.Errorf("%s: bound %v not below setup_s's %v", d.Name, d.Bound, setupBound)
		}
	}
	for _, l := range perLayer {
		for _, on := range l.On {
			if _, err := findWorkload(on); err != nil {
				t.Errorf("%s: %v", l.Name, err)
			}
		}
	}

	// A result line carries every metric of its mode, by name and
	// unit, and decodes back to the same values.
	for _, defs := range [][]metricDef{m.EndToEnd, m.PerLayer} {
		values := make(map[string]float64)
		for i, d := range defs {
			values[d.Name] = 1.5 + float64(i)
		}
		metrics, err := report(defs, values)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(result{Correct: true, Attempted: 10, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		var back result
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil || !reflect.DeepEqual(back.Metrics, metrics) {
			t.Fatalf("round trip of %s: %v", line, err)
		}
		delete(values, defs[0].Name)
		if _, err := report(defs, values); err == nil {
			t.Fatalf("a result missing %s was accepted", defs[0].Name)
		}
	}
}

// tiny is a workload small enough for a unit test whose open rounds
// still hold the thousand authentications a p99 needs.
var tiny = workload{
	name: "tiny", devices: 4, lines: 1024, errors: 20, remapEvery: 3, rotators: 2, setups: 2, opens: 2,
	epochs: 2, chunkOps: 30, roundOps: 752, openRate: 20000,
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark on a tiny fleet")
	}
	for _, traced := range []bool{false, true} {
		res, err := run(tiny, 3, 10, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		defs := endToEnd
		if traced {
			defs = layerMetricDefs()
		}
		if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		if v := res.Metrics["ok_ratio"].Value; !traced && v != 1 {
			t.Fatalf("ok_ratio = %v", v)
		}
		if v := res.Metrics["auth.remap_us"].Value; traced && v <= 0 {
			t.Fatalf("traced run measured no key update: %v", v)
		}
	}
}

func TestGateTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind opKind
		// swap gives the genuine device the impostor's silicon, or the
		// impostor the genuine one.
		swap func(d *device)
	}{
		{"forged accept", opImpostor, func(d *device) { d.impostor = d.silicon }},
		{"genuine rejection", opAuth, func(d *device) { d.silicon = d.impostor }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			devs := newFleet(tiny, 5)
			dr := &loadgen{devs: devs, fleet: tiny.devices, tl: &tally{}, fsys: newMemFS()}
			defer dr.fsys.close()
			dir := t.TempDir()
			s, err := setUp(context.Background(), tiny, dr, dir, 5)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			tc.swap(devs[0])
			dr.bind(keysOf(t, s, devs))
			dr.do(context.Background(), s.pool, 0, op{dev: 0, kind: tc.kind})
			if err := dr.tl.gateErr(); !errors.Is(err, errGate) {
				t.Fatalf("gate error = %v", err)
			}
		})
	}
}

// keysOf reads each device's current key from the system's server.
func keysOf(t *testing.T, s *system, devs []*device) []authenticache.Key {
	keys := make([]authenticache.Key, len(devs))
	for i, d := range devs {
		k, err := s.enroller.CurrentKey(d.id)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}
