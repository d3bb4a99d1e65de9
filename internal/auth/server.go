// Package auth implements the Authenticache authentication protocol
// (paper Sections 2.1, 4.3–4.5): the enrollment database and
// challenge-issuing server, the client-side responder, and transports
// (in-memory and TCP).
//
// The server never stores challenge-response pairs. It stores each
// client's *physical error map* — a few kilobytes — and generates
// challenges on demand (Section 4.2's storage argument). Challenges
// are expressed in a keyed *logical* coordinate space; the shared
// remap key hides the physical error layout from eavesdroppers and can
// be rotated in the field through the helper-data key-update protocol
// (Section 4.5).
//
// # Layering
//
// The package is split into focused modules:
//
//   - server.go      — Server core: config, construction, shared helpers
//   - clientstore.go — client records and the sharded in-memory store
//   - enroll.go      — enrollment and client lookup
//   - challenge.go   — challenge generation (single-, fixed-, and multi-Vdd)
//   - verify.go      — response verification and thresholding
//   - remap.go       — the Section 4.5 key-update protocol
//   - stats.go       — race-safe service counters
//   - session.go     — session-key derivation on top of verification
//   - errors.go      — the typed *AuthError taxonomy and wire codes
//   - store.go       — enrollment-database persistence
//   - wire.go        — TCP transport (server and client)
//
// # Concurrency
//
// Clients are embarrassingly independent: per-client state never
// crosses records. The Server therefore keeps no global mutable lock;
// records live in a sharded store and carry their own locks, so
// challenge issue/verify for different clients proceed in parallel.
// Every public mutating method takes a context.Context and fails fast
// with a CodeCanceled *AuthError once the context is done.
package auth

import (
	"fmt"
	"sync"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
	"repro/internal/rng"
)

// ClientID names an enrolled device.
type ClientID string

// Config tunes the server.
type Config struct {
	// ChallengeBits is the CRP length issued by default.
	ChallengeBits int
	// PIntra and PInter parameterise the binomial identifiability
	// model used to place the acceptance threshold at the equal error
	// rate (paper Section 2.2.3). PIntra is the expected per-bit noise
	// flip probability for genuine clients; PInter the per-bit
	// agreement probability for impostors (~0.5).
	PIntra, PInter float64
	// RemapKeyBits is the secret length derived per key update.
	RemapKeyBits int
	// RemapAfterCRPs advises a key rotation once this many challenge
	// bits have been issued under the current key — the Section 6.7
	// model-building mitigation ("regenerate the logical map after a
	// predefined number of CRPs"). 0 disables the advice.
	RemapAfterCRPs int
	// StoreShards sets the shard count of the in-memory client store;
	// 0 uses the default. More shards reduce map-lock collisions for
	// very large fleets; per-client operations are independent at any
	// setting.
	StoreShards int
	// WAL, when non-nil, receives a durable journal record for every
	// mutation (enroll, pair burn, key rotation, counter advance,
	// delete) before the mutating call returns. Recovery flows attach
	// the journal after replay instead (Server.AttachJournal) so
	// replayed mutations are not re-journaled.
	WAL Journal
}

// DefaultConfig mirrors the paper's operating point: 256-bit CRPs and
// a threshold model with ~6% intra-chip noise.
func DefaultConfig() Config {
	return Config{
		ChallengeBits: 256,
		PIntra:        0.10,
		PInter:        0.46,
		RemapKeyBits:  128,
		// The paper's win-rate attacker needs ~40K observed CRPs to
		// leave the 50% floor (Figure 16); rotate well before that.
		RemapAfterCRPs: 1 << 20,
	}
}

// Server is the authenticating server: configuration, the client
// store, and the challenge-generation randomness source. All methods
// are safe for concurrent use.
type Server struct {
	cfg   Config
	store *shardedStore

	// journal, when non-nil, is written inside the same per-record
	// critical section as each mutation (see journal.go).
	journal Journal

	// randMu guards rand: the deterministic stream is shared so that
	// single-threaded runs reproduce the seed exactly; draws are short
	// and never held across per-record work.
	randMu sync.Mutex
	rand   *rng.Rand

	// thresholds caches EqualErrorRate results per response length
	// (int → int); the binomial scan is O(n) with Lgamma per step and
	// would otherwise dominate Verify.
	thresholds sync.Map

	stats serverCounters
}

// NewServer creates a server. seed drives challenge generation and
// key-update secrets; production deployments would use a CSPRNG, the
// simulator uses the deterministic stream for reproducibility.
func NewServer(cfg Config, seed uint64) *Server {
	if cfg.ChallengeBits <= 0 {
		panic("auth: config needs positive challenge length")
	}
	if cfg.RemapKeyBits <= 0 {
		cfg.RemapKeyBits = 128
	}
	return &Server{
		cfg:     cfg,
		rand:    rng.New(seed),
		store:   newShardedStore(cfg.StoreShards),
		journal: cfg.WAL,
	}
}

// randIntn draws from the shared deterministic stream.
func (s *Server) randIntn(n int) int {
	s.randMu.Lock()
	v := s.rand.Intn(n)
	s.randMu.Unlock()
	return v
}

// randIntn2 draws two values under one lock acquisition, in the same
// stream order as two randIntn calls would (a first, then b), so the
// deterministic sequence is unchanged but the hot issue loop pays half
// the mutex traffic.
func (s *Server) randIntn2(n int) (a, b int) {
	s.randMu.Lock()
	a = s.rand.Intn(n)
	b = s.rand.Intn(n)
	s.randMu.Unlock()
	return a, b
}

// randUint64 draws from the shared deterministic stream.
func (s *Server) randUint64() uint64 {
	s.randMu.Lock()
	v := s.rand.Uint64()
	s.randMu.Unlock()
	return v
}

// SaltChallengeStream folds salt into the challenge-generation stream.
// Recovery and replication paths call it after rebuilding state: a
// server reseeded with the same value as its pre-crash self (or its
// primary) restarts the exact draw sequence that produced the pairs
// the registry already holds burned — every subsequent sample walks
// straight down the consumed prefix and issuance dies with a spurious
// CodeExhausted, even though the pair space is almost entirely free.
// Salting with a per-boot quantity (ChallengeCount, folded with a
// node index in a cluster) decorrelates the streams while staying
// deterministic for a given (seed, salt), so simulations remain
// reproducible.
func (s *Server) SaltChallengeStream(salt uint64) {
	s.randMu.Lock()
	s.rand = s.rand.SplitNamed(fmt.Sprintf("salt/%d", salt))
	s.randMu.Unlock()
}

// ChallengeCount sums the enrolled clients' challenge counters. Every
// authentication challenge and key update draws from the challenge
// stream, advances its client's counter and journals the advance, so
// after recovery the sum differs from the sum every earlier boot that
// drew from the stream started with: the per-boot salt recovery
// needs. (Deleting a client lowers the sum, so a boot that deleted one
// can share a salt with an earlier boot.)
func (s *Server) ChallengeCount() uint64 {
	var n uint64
	s.store.Range(func(_ ClientID, rec *clientRecord) bool {
		rec.mu.Lock()
		n += rec.nextID
		rec.mu.Unlock()
		return true
	})
	return n
}

// LogicalPlane permutes a physical error plane into the keyed logical
// layout used on the wire. Exported because the client device applies
// the inverse of the same permutation.
func LogicalPlane(phys *errormap.Plane, key mapkey.Key, vddMV int) *errormap.Plane {
	return permutePlane(phys, mapkey.NewPermutation(mapkey.PlaneKey(key, vddMV), phys.Geometry().Lines))
}

// permutePlane moves every error of a physical plane to its logical
// line under perm. The server passes the record's cached permutation,
// so a key's round tables are built once per plane.
func permutePlane(phys *errormap.Plane, perm *mapkey.Permutation) *errormap.Plane {
	logical := errormap.NewPlane(phys.Geometry())
	for _, e := range phys.Errors() {
		logical.Set(perm.Map(e), true)
	}
	return logical
}

// pairFingerprint packs a pair bit into one comparable word with the
// line pair canonicalised (unordered), so two bits hitting the same
// physical pair at the same voltage collide regardless of A/B order.
// Line indexes fit in 24 bits (geometries are ≤2^24 lines) and rail
// voltages in 16, so the packing is collision-free in practice.
func pairFingerprint(p crp.PairBit) uint64 {
	lo, hi := p.A, p.B
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<40 | uint64(hi)<<16 | uint64(uint16(p.VddMV))
}

func cloneChallenge(c *crp.Challenge) *crp.Challenge {
	out := &crp.Challenge{ID: c.ID, Bits: make([]crp.PairBit, len(c.Bits))}
	copy(out.Bits, c.Bits)
	return out
}

func nearDist(f *errormap.DistanceField, line int) (int, bool) {
	if f == nil {
		return 0, false
	}
	return f.DistLine(line), true
}
