package auth

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crp"
	"repro/internal/mapkey"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := testMap(t, 16384, 100, 21, 680, 700)
	srv, resp := enrolledPair(t, DefaultConfig(), m, m, 700)

	// Burn some pairs so the registry has content.
	for i := 0; i < 3; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		answer, _ := resp.Respond(ch)
		if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); !ok {
			t.Fatal("setup auth failed")
		}
	}

	var buf bytes.Buffer
	if err := srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewServer(DefaultConfig(), 999)
	if err := restored.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.Enrolled("dev-1") {
		t.Fatal("client lost across save/load")
	}
	// The key survives: the existing responder still authenticates.
	ch, err := restored.IssueChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := resp.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := restored.Verify(ctx, "dev-1", ch.ID, answer); !ok {
		t.Fatal("restored server rejected the genuine client")
	}
	// Reserved plane survives.
	if _, err := restored.IssueChallengeAt(ctx, "dev-1", 700); err == nil {
		t.Fatal("restored server forgot the reserved plane")
	}
}

// The no-reuse registry is a security invariant; it must survive
// restarts so burned pairs stay burned.
func TestRegistrySurvivesRestart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 32
	m := testMap(t, 1024, 30, 22, 680)
	srv, _ := enrolledPair(t, cfg, m, m)

	burned := map[[2]int]bool{}
	for i := 0; i < 4; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range ch.Bits {
			k := [2]int{b.A, b.B}
			if b.A > b.B {
				k = [2]int{b.B, b.A}
			}
			burned[k] = true
		}
	}
	var buf bytes.Buffer
	if err := srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewServer(cfg, 1234)
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	// Newly issued pairs must avoid everything burned pre-restart.
	for i := 0; i < 4; i++ {
		ch, err := restored.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range ch.Bits {
			k := [2]int{b.A, b.B}
			if b.A > b.B {
				k = [2]int{b.B, b.A}
			}
			if burned[k] {
				t.Fatalf("pair %v reissued after restart", k)
			}
		}
	}
}

// The rotation budget must survive a restart (v2). Before v2, a
// bounced server forgot how many CRPs the current key had served and
// never advised a remap.
func TestCRPBudgetSurvivesRestart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 32
	cfg.RemapAfterCRPs = 3
	m := testMap(t, 1024, 30, 25, 680, 700)
	srv, resp := enrolledPair(t, cfg, m, m, 700)

	for i := 0; i < cfg.RemapAfterCRPs; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		answer, _ := resp.Respond(ch)
		if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); !ok {
			t.Fatal("setup auth failed")
		}
	}
	if !srv.NeedsRemap("dev-1") {
		t.Fatal("remap not advised after burning the budget")
	}

	var buf bytes.Buffer
	if err := srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewServer(cfg, 777)
	if err := restored.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.NeedsRemap("dev-1") {
		t.Fatal("restart reset the rotation budget")
	}
	// A v2 snapshot, whose dev-1 burned the same budget, keeps it too.
	fromV2 := NewServer(cfg, 777)
	if err := fromV2.LoadState(bytes.NewReader(readFixture(t, "state-v2.json"))); err != nil {
		t.Fatal(err)
	}
	if !fromV2.NeedsRemap("dev-1") {
		t.Fatal("loading a v2 snapshot reset the rotation budget")
	}

	// Rotating the key must clear the persisted counter on both sides
	// of a save/load.
	if _, err := restored.BeginRemap(ctx, "dev-1"); err != nil {
		t.Fatal(err)
	}
	if err := restored.CompleteRemap(ctx, "dev-1", true); err != nil {
		t.Fatal(err)
	}
	if restored.NeedsRemap("dev-1") {
		t.Fatal("remap still advised after key rotation")
	}
}

// readFixture returns a snapshot from testdata. state-v1.json and
// state-v2.json were written by the v2 SaveState, the last JSON
// writer; state-v1.json was then downgraded to the v1 shape (version
// 1, no crps_since_remap), as a pre-v2 server wrote it. state-v1.json
// holds dev-1 (1024 lines, one plane, seed 26) after two
// authentications with 32-bit challenges. state-v2.json holds dev-1
// (1024 lines, planes 680 and 700 with 700 reserved, seed 25) after
// three, dev-2 (16384 lines, seed 27) after two, and dev-3 (1024
// lines, 700 reserved, seed 28) after a key rotation, one
// authentication and one unanswered challenge.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v1 blobs (no crps_since_remap, version: 1) must still load, with the
// rotation budget conservatively zeroed.
func TestLoadStateAcceptsV1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 32
	cfg.RemapAfterCRPs = 2
	restored := NewServer(cfg, 888)
	if err := restored.LoadState(bytes.NewReader(readFixture(t, "state-v1.json"))); err != nil {
		t.Fatalf("v1 state rejected: %v", err)
	}
	if !restored.Enrolled("dev-1") {
		t.Fatal("client lost loading v1 state")
	}
	if restored.NeedsRemap("dev-1") {
		t.Fatal("v1 load should zero the rotation budget, not invent one")
	}
	// The device that wrote the snapshot's history still authenticates
	// against the v1-restored server.
	key, err := restored.CurrentKey("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponder("dev-1", NewSimDevice(testMap(t, 1024, 30, 26, 680)), key)
	ch, err := restored.IssueChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if ch.ID != 2 {
		t.Fatalf("next challenge id %d, want the snapshot's 2", ch.ID)
	}
	answer, _ := resp.Respond(ch)
	if ok, _ := restored.Verify(ctx, "dev-1", ch.ID, answer); !ok {
		t.Fatal("v1-restored server rejected the genuine client")
	}
}

// A v2 snapshot loads every client with its key, reserved planes,
// counters and every burned pair, and saves back as an equivalent v3
// snapshot.
func TestLoadStateV2Fixture(t *testing.T) {
	raw := readFixture(t, "state-v2.json")
	var want storedState
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(DefaultConfig(), 5)
	if err := srv.LoadState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.ClientIDs()); got != len(want.Clients) || got != 3 {
		t.Fatalf("loaded %d clients, want %d", got, len(want.Clients))
	}
	for _, sc := range want.Clients {
		rec, ok := srv.store.Get(ClientID(sc.ID))
		if !ok {
			t.Fatalf("client %s lost", sc.ID)
		}
		rec.mu.Lock()
		if hex.EncodeToString(rec.key[:]) != sc.KeyHex {
			t.Errorf("%s: key changed", sc.ID)
		}
		if rec.nextID != sc.NextID || rec.crpsSinceRemap != sc.CRPsSinceRemap {
			t.Errorf("%s: counters %d/%d, want %d/%d", sc.ID, rec.nextID, rec.crpsSinceRemap, sc.NextID, sc.CRPsSinceRemap)
		}
		if len(rec.reserved) != len(sc.Reserved) {
			t.Errorf("%s: reserved %v, want %v", sc.ID, rec.reserved, sc.Reserved)
		}
		if len(sc.Used) == 0 || rec.registry.Used() != len(sc.Used) {
			t.Errorf("%s: %d burned pairs, want %d", sc.ID, rec.registry.Used(), len(sc.Used))
		}
		for _, p := range sc.Used {
			if !rec.registry.IsUsed(p) {
				t.Errorf("%s: pair %+v lost", sc.ID, p)
			}
		}
		rec.mu.Unlock()
	}

	var v3 bytes.Buffer
	if err := srv.SaveState(&v3); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v3.Bytes(), []byte(snapMagic)) {
		t.Fatal("SaveState did not write a v3 snapshot")
	}
	again := NewServer(DefaultConfig(), 6)
	if err := again.LoadState(bytes.NewReader(v3.Bytes())); err != nil {
		t.Fatal(err)
	}
	var twice bytes.Buffer
	if err := again.SaveState(&twice); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3.Bytes(), twice.Bytes()) {
		t.Fatal("v3 round trip of the v2 fixture changed the database")
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	srv := NewServer(DefaultConfig(), 1)
	cases := map[string]string{
		"not json":       "not json at all",
		"bad version":    `{"version": 99, "clients": []}`,
		"empty id":       `{"version": 1, "clients": [{"id": "", "map": "", "key": ""}]}`,
		"bad map":        `{"version": 1, "clients": [{"id": "x", "map": "aGk=", "key": "00"}]}`,
		"duplicate":      "",
		"bad key length": "",
		"ghost reserved": "",
	}
	for name, payload := range cases {
		if payload == "" {
			continue // exercised below with structured builders
		}
		if err := srv.LoadState(strings.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadStateRejectsDuplicateAndBadKey(t *testing.T) {
	good := string(readFixture(t, "state-v2.json"))
	target := NewServer(DefaultConfig(), 2)
	if err := target.LoadState(strings.NewReader(good)); err != nil {
		t.Fatal(err)
	}

	// Duplicate the first client entry by JSON surgery.
	entryStart := strings.Index(good, `{`+"\n"+`   "id"`)
	entryEnd := strings.Index(good, `"id": "dev-2"`)
	if entryStart < 0 || entryEnd < 0 {
		t.Fatal("unexpected fixture layout")
	}
	entry := good[entryStart:entryEnd]
	dupPayload := good[:entryStart] + entry + entry + good[entryStart+len(entry):]
	if err := target.LoadState(strings.NewReader(dupPayload)); err == nil {
		t.Error("duplicate client accepted")
	}

	// Corrupt the key.
	badKey := strings.Replace(good, `"key": "`, `"key": "zz`, 1)
	if err := target.LoadState(strings.NewReader(badKey)); err == nil {
		t.Error("corrupt key accepted")
	}
	// Reserve a plane the map does not have.
	ghost := strings.Replace(good, "\"reserved\": [\n    700", "\"reserved\": [\n    900", 1)
	if ghost == good {
		t.Fatal("unexpected fixture layout")
	}
	if err := target.LoadState(strings.NewReader(ghost)); err == nil {
		t.Error("unenrolled reserved plane accepted")
	}
}

// v3Snapshot frames record payloads as a v3 snapshot.
func v3Snapshot(payloads ...[]byte) []byte {
	buf := append([]byte(snapMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[len(snapMagic):], uint32(len(payloads)))
	for _, p := range payloads {
		start := len(buf)
		buf = append(buf, make([]byte, snapFrameLen)...)
		buf = append(buf, p...)
		sealRecord(buf, start)
	}
	return buf
}

// TestLoadStateRejectsMalformedV3 holds the binary path to every
// rejection of the JSON one, and to its own framing checks.
func TestLoadStateRejectsMalformedV3(t *testing.T) {
	m := testMap(t, 1024, 20, 23, 680, 700)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m, 700)
	if _, err := srv.IssueChallenge(ctx, "dev-1"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	target := NewServer(DefaultConfig(), 2)
	if err := target.LoadState(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}

	mb, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var key mapkey.Key
	head := func(id string, mapBytes []byte, reserved ...int) []byte {
		return appendClientHead(nil, ClientID(id), mapBytes, key, reserved, 1, 0)
	}
	valid := append(head("x", mb, 700), 0) // no burned pairs
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	shortKey := binary.AppendUvarint([]byte{1, 'x'}, uint64(len(mb)))
	shortKey = append(append(shortKey, mb...), key[:10]...)
	// plane appends one registry plane at 680 mV holding the indexes.
	plane := func(b []byte, idxs ...uint64) []byte {
		b = binary.AppendVarint(b, 680)
		b = binary.AppendUvarint(b, uint64(len(idxs)))
		for _, i := range idxs {
			b = binary.AppendUvarint(b, i)
		}
		return b
	}
	cases := map[string][]byte{
		"bad magic":           mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"unsupported version": mutate(func(b []byte) []byte { b[len(snapMagic)-1] = '4'; return b }),
		"crc mismatch":        mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
		"trailing bytes":      mutate(func(b []byte) []byte { return append(b, 0) }),
		"count too high":      mutate(func(b []byte) []byte { b[len(snapMagic)]++; return b }),
		"count too low":       mutate(func(b []byte) []byte { b[len(snapMagic)]--; return b }),
		"empty id":            v3Snapshot(append(head("", mb), 0)),
		"duplicate id":        v3Snapshot(valid, valid),
		"bad map":             v3Snapshot(append(head("x", []byte("hi")), 0)),
		"short key":           v3Snapshot(shortKey),
		"ghost reserved":      v3Snapshot(append(head("x", mb, 900), 0)),
		"index out of range":  v3Snapshot(plane(append(head("x", mb), 1), crp.PossibleCRPs(1024))),
		"duplicate planes":    v3Snapshot(plane(plane(append(head("x", mb), 2), 0), 1)),
		"record trailing":     v3Snapshot(append(valid, 0)),
		"record truncated":    v3Snapshot(head("x", mb)),
	}
	for name, b := range cases {
		if err := target.LoadState(bytes.NewReader(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for n := 0; n < len(good); n++ {
		if err := target.LoadState(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
	var ae *AuthError
	if err := target.LoadState(bytes.NewReader(cases["unsupported version"])); !errors.As(err, &ae) || ae.Code != CodeInvalidRequest {
		t.Errorf("unsupported version: %v, want an invalid-request error", err)
	}
	// Every refusal left the database as the good snapshot loaded it.
	if ids := target.ClientIDs(); len(ids) != 1 || ids[0] != "dev-1" {
		t.Fatalf("a refused snapshot replaced the database: %v", ids)
	}
}

func TestSaveStateDeterministic(t *testing.T) {
	m := testMap(t, 4096, 40, 24, 680)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m)
	var a, b bytes.Buffer
	if err := srv.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("SaveState output not deterministic")
	}
}
