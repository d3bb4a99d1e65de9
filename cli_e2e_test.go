package authenticache_test

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// End-to-end test of the shipped binaries: build authd and authcli,
// start the daemon, authenticate a genuine client, verify an impostor
// is rejected, and check that the write-ahead log carries the
// enrollment across a killed daemon's restart.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir := t.TempDir()
	authd := filepath.Join(dir, "authd")
	authcli := filepath.Join(dir, "authcli")
	for _, b := range []struct{ out, pkg string }{
		{authd, "./cmd/authd"},
		{authcli, "./cmd/authcli"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	// Standalone authd without -wal would reissue its previous boot's
	// challenges after a restart, so it must refuse to start.
	noWAL, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(noWAL, authd, "-addr", freeAddr(t), "-devices", "1", "-cache", "262144").CombinedOutput(); err == nil || !strings.Contains(string(out), "-wal") {
		t.Fatalf("authd without -wal: err=%v, want a non-zero exit naming -wal:\n%s", err, out)
	}

	walDir := filepath.Join(dir, "wal")
	addr := freeAddr(t)

	provisions, stop := startAuthd(t, authd, addr, walDir, "-devices", "1", "-cache", "262144")
	key := provisions["dev-0"]
	if key == "" {
		t.Fatal("no provisioning line for dev-0")
	}

	// Genuine client.
	out, err := exec.Command(authcli,
		"-addr", addr, "-id", "dev-0", "-chipseed", "1", "-cache", "262144",
		"-key", key, "-n", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("genuine client failed: %v\n%s", err, out)
	}
	if c := strings.Count(string(out), "ACCEPTED"); c != 2 {
		t.Fatalf("genuine client accepted %d/2:\n%s", c, out)
	}

	// Impostor: right key, wrong silicon; exit code must be nonzero.
	out, err = exec.Command(authcli,
		"-addr", addr, "-id", "dev-0", "-chipseed", "1", "-cache", "262144",
		"-key", key, "-n", "1", "-impostor").CombinedOutput()
	if err == nil {
		t.Fatalf("impostor exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "REJECTED") {
		t.Fatalf("impostor not rejected:\n%s", out)
	}

	// Kill the daemon and restart it from the WAL: the recovered key
	// keeps working.
	stop()
	addr2 := freeAddr(t)
	provisions2, stop2 := startAuthd(t, authd, addr2, walDir)
	defer stop2()
	if provisions2["dev-0"] != key {
		t.Fatalf("restored key differs: %q vs %q", provisions2["dev-0"], key)
	}
	out, err = exec.Command(authcli,
		"-addr", addr2, "-id", "dev-0", "-chipseed", "1", "-cache", "262144",
		"-key", key, "-n", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("post-restart auth failed: %v\n%s", err, out)
	}
}

// syncBuffer makes the daemon's combined output safe to read while
// exec's pipe-copy goroutines are still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startAuthd launches the daemon on walDir and parses its PROVISION
// lines, returning id->keyhex and a stop function that kills it.
func startAuthd(t *testing.T, bin, addr, walDir string, extra ...string) (map[string]string, func()) {
	t.Helper()
	args := append([]string{"-addr", addr, "-wal", walDir}, extra...)
	cmd := exec.Command(bin, args...)
	var buf syncBuffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	// Wait until the daemon listens.
	deadline := time.Now().Add(60 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("authd never listened on %s:\n%s", addr, buf.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	provisions := map[string]string{}
	re := regexp.MustCompile(`PROVISION id=(\S+).* key=([0-9a-f]{64})`)
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			provisions[m[1]] = m[2]
		}
	}
	return provisions, stop
}

// freeAddr grabs an unused localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}
