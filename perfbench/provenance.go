package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// provenance records what a run did and where, so two runs can be
// compared. Operation counts depend only on the workload, the seed and
// the run length; a run whose counts or end-state Issued differ from
// another's with the same arguments did different work.
type provenance struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`

	Devices    int     `json:"devices"`
	Rotators   int     `json:"rotators"`
	CacheLines int     `json:"cache_lines"`
	Conns      int     `json:"conns"`
	InFlight   int     `json:"in_flight"`
	Epochs     int     `json:"epochs"`
	OpenRate   float64 `json:"open_rate_per_s"`
	Ops        opCount `json:"ops"`
	// Issued is the end state's Server.Stats().Issued (summed over a
	// cluster's nodes); Hedged counts issues beyond one per verdict
	// and per try that ended in a typed error.
	Issued int64 `json:"issued"`
	Hedged int64 `json:"hedged_issues"`
	// TypedErrors counts tries that ended in a typed error, Retried the
	// tries beyond each operation's first. On cluster-auth most are the
	// forwards a node fails when it hangs up on the router's relay
	// connection at its per-connection transaction cap.
	TypedErrors int64 `json:"typed_errors"`
	Retried     int64 `json:"retried"`
	// RecoveredExhausted counts the tries the recovered server refused
	// as exhausted (see recoverImage); each is also a typed error.
	RecoveredExhausted int64 `json:"recovered_exhausted"`

	// ChunkRates are the closed-loop chunks' throughputs, op/s.
	ChunkRates []float64 `json:"closed_chunk_rates"`
	// RecoverS and CompactS are every recovery's and compaction's
	// time, s.
	RecoverS []float64 `json:"recover_samples_s"`
	CompactS []float64 `json:"compact_samples_s"`
	// P99Beyond counts the authentications beyond tail.auth_p99_ms
	// (traced runs).
	P99Beyond int         `json:"auth_p99_beyond,omitempty"`
	LateP99Ms float64     `json:"late_p99_ms"`
	GapMs     float64     `json:"gap_ms"`
	Rounds    []roundStat `json:"open_rounds"`
	// OpenLoopValid is false when in every round the generator ran a
	// whole inter-arrival gap late at p99: the latencies then measure
	// the stalled machine.
	OpenLoopValid bool `json:"open_loop_valid"`

	// StealPct is the share of the machine's CPU time the hypervisor
	// took during the run: other tenants' load, which no change to
	// the program can move.
	StealPct float64 `json:"cpu_steal_pct"`

	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	// Source is a SHA-256 over the checkout's Go sources and go.mod
	// files: the checkout carries no git metadata.
	Source string `json:"source_sha256"`
	// WALFS is where the WAL's segments live (anonymous shared memory,
	// see memFS) and the filesystem its snapshots are written to.
	WALFS string `json:"wal_fs"`
}

// roundStat is one open-loop round, in milliseconds.
type roundStat struct {
	P50      float64 `json:"p50_ms"`
	RemapP50 float64 `json:"remap_p50_ms,omitempty"`
	LateP99  float64 `json:"late_p99_ms"`
	Valid    bool    `json:"valid"`
}

// opCount counts the scheduled operations by phase and kind, and the
// operations attempted (set-up and recovery checks included).
type opCount struct {
	Closed    int   `json:"closed"`
	Rotation  int   `json:"rotation"`
	Open      int   `json:"open"`
	Auth      int   `json:"auth"`
	Impostor  int   `json:"impostor"`
	Remap     int   `json:"remap"`
	Attempted int64 `json:"attempted"`
}

type phase uint8

const (
	phaseClosed phase = iota
	phaseRotation
	phaseOpen
)

// count adds a scheduled phase to the counts.
func (c *opCount) count(ops []op, p phase) {
	switch p {
	case phaseClosed:
		c.Closed += len(ops)
	case phaseRotation:
		c.Rotation += len(ops)
	case phaseOpen:
		c.Open += len(ops)
	}
	for _, o := range ops {
		switch o.kind {
		case opAuth:
			c.Auth++
		case opImpostor:
			c.Impostor++
		case opRemap:
			c.Remap++
		}
	}
}

func hostInfo(p *provenance, walDir string) {
	p.GoVersion = runtime.Version()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	p.NumCPU = runtime.NumCPU()
	p.CPUModel = cpuModel()
	p.Source = sourceDigest(".")
	p.WALFS = "segments: memfd; snapshots: " + fsType(walDir)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// sourceDigest hashes every .go and go.mod file under root, in path
// order, skipping hidden directories (build output lives there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat, in clock ticks (zero where unavailable).
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
