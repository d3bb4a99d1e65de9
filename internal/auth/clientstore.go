package auth

import (
	"sort"
	"sync"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
)

// pendingChallenge is an issued, not-yet-verified challenge.
type pendingChallenge struct {
	ch       *crp.Challenge
	expected crp.Response
}

// remapState tracks an in-flight key update: the request handed to
// the client, reissued until the update commits or fails, and the key
// it derives.
type remapState struct {
	req    *RemapRequest
	newKey mapkey.Key
}

// clientRecord is the per-client enrollment state. The record owns its
// own lock: operations on different clients never contend, which is
// what lets the server scale across a fleet (per-client state never
// crosses records).
type clientRecord struct {
	// mu guards every field below. The store hands out *clientRecord
	// pointers; callers lock the record for the duration of the
	// per-client operation.
	mu sync.Mutex

	physMap  *errormap.Map
	key      mapkey.Key
	reserved map[int]bool
	registry *crp.Registry
	pending  map[uint64]pendingChallenge
	nextID   uint64
	remap    *remapState
	// crpsSinceRemap counts challenge bits issued under the current
	// key, driving the rotation advice.
	crpsSinceRemap int

	// logicalFields caches logical-plane distance fields per voltage;
	// invalidated on key rotation.
	logicalFields map[int]*errormap.DistanceField
	// perms caches the per-voltage keyed permutations under the
	// current key; invalidated on key rotation together with
	// logicalFields.
	perms map[int]*mapkey.Permutation
}

// newClientRecord builds a fresh record around an enrollment map.
func newClientRecord(physMap *errormap.Map, key mapkey.Key, reserved map[int]bool) *clientRecord {
	return &clientRecord{
		physMap:       physMap,
		key:           key,
		reserved:      reserved,
		registry:      crp.NewRegistryLines(physMap.Geometry().Lines),
		pending:       make(map[uint64]pendingChallenge),
		logicalFields: make(map[int]*errormap.DistanceField),
		perms:         make(map[int]*mapkey.Permutation),
	}
}

// permLocked returns (building and caching) the keyed permutation for the
// voltage under the current key. Callers hold rec.mu.
func (rec *clientRecord) permLocked(vddMV int) *mapkey.Permutation {
	if p, ok := rec.perms[vddMV]; ok {
		return p
	}
	p := mapkey.NewPermutation(mapkey.PlaneKey(rec.key, vddMV), rec.physMap.Geometry().Lines)
	rec.perms[vddMV] = p
	return p
}

// rotateKeyLocked installs a new key and invalidates every key-derived
// cache. Callers hold rec.mu.
func (rec *clientRecord) rotateKeyLocked(key mapkey.Key) {
	rec.key = key
	rec.logicalFields = make(map[int]*errormap.DistanceField)
	rec.perms = make(map[int]*mapkey.Permutation)
	rec.crpsSinceRemap = 0
}

// defaultStoreShards is the shard count used when Config.StoreShards
// is zero: enough to make shard-lock collisions rare at realistic
// core counts, small enough to be free for tiny fleets.
const defaultStoreShards = 32

// shardedStore owns the lifecycle of clientRecords: lookup, creation,
// deletion, and whole-database snapshot/replace for persistence. It
// only synchronises the id→record map itself; the records it hands
// out carry their own locks. It keeps N shards keyed by FNV-1a of the
// ClientID, each shard a map under its own RWMutex, so challenge issue
// and verify for different clients take only a read lock on one shard
// plus the per-record lock and proceed in parallel.
type shardedStore struct {
	shards []storeShard
}

type storeShard struct {
	mu      sync.RWMutex
	clients map[ClientID]*clientRecord
}

// newShardedStore builds a store with n shards (n < 1 uses the
// default).
func newShardedStore(n int) *shardedStore {
	if n < 1 {
		n = defaultStoreShards
	}
	s := &shardedStore{shards: make([]storeShard, n)}
	for i := range s.shards {
		s.shards[i].clients = make(map[ClientID]*clientRecord)
	}
	return s
}

// shardIndexFor hashes the id with FNV-1a onto a shard index.
func (s *shardedStore) shardIndexFor(id ClientID) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

func (s *shardedStore) shardFor(id ClientID) *storeShard {
	return &s.shards[s.shardIndexFor(id)]
}

// Get returns the record for id, or false if the id is unknown.
func (s *shardedStore) Get(id ClientID) (*clientRecord, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.clients[id]
	sh.mu.RUnlock()
	return rec, ok
}

// Create installs rec under id if absent and reports whether it was
// installed (false: the id already exists, rec is discarded).
func (s *shardedStore) Create(id ClientID, rec *clientRecord) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.clients[id]; dup {
		return false
	}
	sh.clients[id] = rec
	return true
}

// Delete removes id and reports whether it existed.
func (s *shardedStore) Delete(id ClientID) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.clients[id]; !ok {
		return false
	}
	delete(sh.clients, id)
	return true
}

// Len counts enrolled clients.
func (s *shardedStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.clients)
		sh.mu.RUnlock()
	}
	return n
}

// IDs lists enrolled clients in sorted order.
func (s *shardedStore) IDs() []ClientID {
	var out []ClientID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.clients {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Range calls fn for every record until fn returns false. The
// iteration order is unspecified; fn must not call back into the
// store.
func (s *shardedStore) Range(fn func(id ClientID, rec *clientRecord) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		// Snapshot the shard under the read lock, call fn outside it,
		// so fn may lock records without holding the shard lock.
		sh.mu.RLock()
		snapshot := make(map[ClientID]*clientRecord, len(sh.clients))
		for id, rec := range sh.clients {
			snapshot[id] = rec
		}
		sh.mu.RUnlock()
		for id, rec := range snapshot {
			if !fn(id, rec) {
				return
			}
		}
	}
}

// ReplaceAll swaps the entire database (LoadState).
func (s *shardedStore) ReplaceAll(clients map[ClientID]*clientRecord) {
	buckets := make([]map[ClientID]*clientRecord, len(s.shards))
	for i := range buckets {
		buckets[i] = make(map[ClientID]*clientRecord)
	}
	for id, rec := range clients {
		buckets[s.shardIndexFor(id)][id] = rec
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.clients = buckets[i]
		sh.mu.Unlock()
	}
}
