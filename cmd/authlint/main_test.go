package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analyzers"
)

// allAnalyzerNames is the registered suite by name; the fixture
// module seeds at least one violation per analyzer, so every e2e mode
// must surface every name.
func allAnalyzerNames() []string {
	var names []string
	for _, a := range analyzers.All() {
		names = append(names, a.Name)
	}
	return names
}

// TestVetHandshake covers the cmd/go tool-identification protocol
// without spawning processes.
func TestVetHandshake(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errOut); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, errOut.String())
	}
	fields := strings.Fields(out.String())
	// cmd/go requires: name, "version", and for devel versions a
	// trailing buildID= field.
	if len(fields) < 3 || fields[0] != "authlint" || fields[1] != "version" ||
		(fields[2] == "devel" && !strings.HasPrefix(fields[len(fields)-1], "buildID=")) {
		t.Fatalf("-V=full output %q does not satisfy cmd/go's toolID parser", out.String())
	}

	out.Reset()
	if code := run([]string{"-flags"}, &out, &errOut); code != 0 {
		t.Fatalf("-flags exited %d: %s", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("-flags printed %q, want an empty JSON array", out.String())
	}
}

// buildDriver compiles authlint once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "authlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building authlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneFindsSeededViolations runs the built driver against
// the fixture module, which seeds at least one violation per analyzer,
// and requires a non-zero exit naming each analyzer.
func TestStandaloneFindsSeededViolations(t *testing.T) {
	bin := buildDriver(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "testdata/fixture"
	out, err := cmd.CombinedOutput()
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("driver err = %v (output %s), want an exit error", err, out)
	}
	if code := exitErr.ExitCode(); code != 1 {
		t.Fatalf("driver exited %d, want 1 (findings)\n%s", code, out)
	}
	for _, analyzer := range allAnalyzerNames() {
		if !strings.Contains(string(out), "("+analyzer+")") {
			t.Errorf("driver output lacks a %s finding:\n%s", analyzer, out)
		}
	}
}

// finding is one fixture diagnostic, with the file relative to the
// fixture module root.
type finding struct {
	Analyzer string
	File     string
	Line     int
	Message  string
}

// fixtureFindings is the exact set of diagnostics the fixture module
// seeds: one per analyzer, except errtaxonomy (a bare errors.New
// return plus a non-exhaustive Retryable switch), locks (an unguarded
// field, an inverted lock order), schema (an asymmetric codec, a
// non-exhaustive wal.Type switch), secretflow (a chained
// secret-to-log flow, a reason-less //lint:sanitizes, a dangling
// //lint:secret), and repinvariant (a stale-term accept, a Journal*
// path skipping the quorum ack, an unaccounted goroutine). Every
// output mode must report exactly these, in this order.
var fixtureFindings = []finding{
	{"errtaxonomy", "auth/auth.go", 9, "returned error is a bare errors.New and escapes the *AuthError taxonomy; use authErr/authErrf (or &AuthError{...})"},
	{"errtaxonomy", "auth/auth.go", 36, "Retryable's switch does not classify CodeOK: the code falls to the conservative no-retry default"},
	{"schema", "codec/codec.go", 18, "codec asymmetry: AppendPing emits [u32] but DecodePing consumes [u64]"},
	{"locks", "locks/locks.go", 13, "field locks.Counter.n is guarded by mu; access it under c.mu.Lock, from a *Locked function, or on a freshly constructed record"},
	{"locks", "order/order.go", 16, "acquires Outer.mu while holding Inner.mu, against the declared lock order storeShard.mu < clientRecord.mu < WAL.closedMu < Outer.mu < Inner.mu"},
	{"release", "pool/pool.go", 11, "pooled buffer from wire.GetBuf \"e\" is not returned to the pool on every path on the path via fast"},
	{"repinvariant", "rep/rep.go", 22, "term comparison with == is not monotonic: a term is a fencing token, compare with an ordering (>=, >) so stale terms are rejected and newer ones win"},
	{"repinvariant", "rep/rep.go", 26, "mutation path JournalEnroll never reaches waitReplicated: replies must wait for the quorum-ack cluster journal, or a failover loses the write"},
	{"repinvariant", "rep/rep.go", 35, "goroutine launched without lifecycle accounting: precede the go statement with wg.Add(1) so Close can wait for termination"},
	{"secretflow", "secret/secret.go", 27, "secret Key value (declared //lint:secret) reaches log output (log.Println) via logf"},
	{"secretflow", "secret/secret.go", 37, "lint:sanitizes directive needs a reason: //lint:sanitizes <why the output is clean>"},
	{"secretflow", "secret/secret.go", 48, "misplaced //lint:secret directive: it must sit on a type, struct field, var, or func declaration"},
	{"atomicwrite", "store/store.go", 8, "direct os.WriteFile bypasses the atomic temp+fsync+rename path; a crash mid-write can destroy the only copy — use wal.AtomicWriteFile (facade: authenticache.AtomicWriteFile)"},
	{"schema", "wal/wal.go", 14, "switch on wal.Type misses TypeDelete: every record type needs an explicit case (schema drift)"},
}

// checkFindings compares one output mode's findings against
// fixtureFindings, entry by entry.
func checkFindings(t *testing.T, mode string, got []finding) {
	t.Helper()
	for i := 0; i < len(got) || i < len(fixtureFindings); i++ {
		switch {
		case i >= len(got):
			t.Errorf("%s: missing finding %+v", mode, fixtureFindings[i])
		case i >= len(fixtureFindings):
			t.Errorf("%s: unexpected finding %+v", mode, got[i])
		case got[i] != fixtureFindings[i]:
			t.Errorf("%s: finding %d is\n  %+v\nwant\n  %+v", mode, i, got[i], fixtureFindings[i])
		}
	}
}

// TestJSONOutput runs the driver in-process with -json over the
// fixture module and checks the machine-readable contract: one JSON
// object per line, stable field names, exactly the seeded findings
// at their positions.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", "testdata/fixture", "-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run exited %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	root, err := filepath.Abs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []finding
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Bytes()
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			t.Fatalf("line %q is not a JSON diagnostic: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("diagnostic %q has empty fields", line)
		}
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatalf("diagnostic file %q is outside the fixture module: %v", d.File, err)
		}
		got = append(got, finding{d.Analyzer, filepath.ToSlash(rel), d.Line, d.Message})
	}
	checkFindings(t, "-json", got)
}

// TestVettoolFindsSeededViolations drives the full `go vet -vettool`
// unitchecker protocol over the fixture module.
func TestVettoolFindsSeededViolations(t *testing.T) {
	bin := buildDriver(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = "testdata/fixture"
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool succeeded, want failure\n%s", out)
	}
	for _, analyzer := range allAnalyzerNames() {
		if !strings.Contains(string(out), "("+analyzer+")") {
			t.Errorf("vettool output lacks a %s finding:\n%s", analyzer, out)
		}
	}
}

// TestSARIFOutput runs the driver in-process with -sarif over the
// fixture module and checks the code-scanning contract: a valid
// SARIF 2.1.0 envelope, one rule per registered analyzer, and exactly
// the seeded findings, each with a physical location whose URI is
// relative to the module root.
func TestSARIFOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", "testdata/fixture", "-sarif", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run exited %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("envelope version %q schema %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "authlint" {
		t.Errorf("driver name %q, want authlint", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
	}
	var got []finding
	for _, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result ruleId %q is not a declared rule", res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result level %q, want error", res.Level)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.Region.StartLine == 0 || loc.Region.StartColumn == 0 {
			t.Errorf("result for %s lacks a region: %+v", res.RuleID, loc.Region)
		}
		uri := loc.ArtifactLocation.URI
		if uri == "" || strings.HasPrefix(uri, "/") || strings.Contains(uri, "testdata/fixture") {
			t.Errorf("artifact URI %q is not relative to the module root", uri)
		}
		got = append(got, finding{res.RuleID, uri, loc.Region.StartLine, res.Message.Text})
	}
	for _, a := range allAnalyzerNames() {
		if !ruleIDs[a] {
			t.Errorf("rules lack registered analyzer %s", a)
		}
	}
	checkFindings(t, "-sarif", got)
}

// TestSecretToLogInAuthRejected is the acceptance check for the taint
// engine's built-in seeds: a scratch module that mimics the repo's
// import paths gets a deliberate error-map-to-log write in its
// internal/auth package, and the driver must reject it — no directive
// in the scratch module, only the built-in seed list.
func TestSecretToLogInAuthRejected(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/errormap/errormap.go": `// Package errormap mimics the repo's error-map container.
package errormap

// Plane is a single-voltage error map.
type Plane struct{ Words []uint64 }
`,
		"internal/auth/auth.go": `// Package auth deliberately logs a raw error map.
package auth

import (
	"log"

	"repro/internal/errormap"
)

// Dump leaks the client's physical error map into the server log.
func Dump(p *errormap.Plane) {
	log.Printf("map=%v", p)
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run exited %d, want 1 (secret-to-log rejected)\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "(secretflow)") ||
		!strings.Contains(text, "raw error map") ||
		!strings.Contains(text, "log output (log.Printf)") {
		t.Fatalf("driver did not report the seeded secret-to-log flow:\n%s", text)
	}
}

// TestStandaloneCleanModuleExitsZero lints the lint framework's own
// module subtree — which must stay clean — through the driver.
func TestStandaloneCleanModuleExitsZero(t *testing.T) {
	bin := buildDriver(t)
	cmd := exec.Command(bin, "-dir", "../..", "./internal/lint/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("driver on a clean subtree: %v\n%s", err, out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Fatalf("driver printed diagnostics on a clean subtree:\n%s", out)
	}
}

// TestPooledBufLeakInWireRejected is the acceptance check for the
// release analyzer's pool seeds: a temporary module that mimics the repo's
// import paths leaks a pooled wire.Buf on an error path in its
// internal/auth package, and the driver must reject it on the
// path-matched wire.GetBuf/PutBuf pair alone.
func TestPooledBufLeakInWireRejected(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/wire/wire.go": `// Package wire mimics the repo's buffer pool.
package wire

// Buf is a pooled frame buffer.
type Buf struct{ B []byte }

var pool []*Buf

// GetBuf hands out a buffer.
func GetBuf() *Buf {
	if n := len(pool); n > 0 {
		b := pool[n-1]
		pool = pool[:n-1]
		return b
	}
	return &Buf{}
}

// PutBuf returns a buffer to the pool.
func PutBuf(b *Buf) { pool = append(pool, b) }
`,
		"internal/auth/auth.go": `// Package auth deliberately leaks a pooled buffer on an error path.
package auth

import (
	"errors"

	"repro/internal/wire"
)

// Frame builds a frame but forgets the buffer when the payload is
// oversized.
func Frame(payload []byte) ([]byte, error) {
	b := wire.GetBuf()
	if len(payload) > 1<<16 {
		return nil, errors.New("payload too large")
	}
	b.B = append(b.B[:0], payload...)
	out := append([]byte(nil), b.B...)
	wire.PutBuf(b)
	return out, nil
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run exited %d, want 1 (pooled-buffer leak rejected)\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "(release)") ||
		!strings.Contains(text, "not returned to the pool on every path") {
		t.Fatalf("driver did not report the seeded pooled-buffer leak:\n%s", text)
	}
}
