package auth

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/errormap"
	"repro/internal/mapkey"
	"repro/internal/rng"
)

// storeRecord builds a minimal valid record for store-contract tests.
func storeRecord(t *testing.T, seed uint64) *clientRecord {
	t.Helper()
	g := errormap.NewGeometry(256)
	m := errormap.NewMap(g)
	m.AddPlane(680, errormap.RandomPlane(g, 10, rng.New(seed)))
	return newClientRecord(m, mapkey.KeyFromBytes([]byte{byte(seed)}, "t"), nil)
}

// testClientStoreContract exercises the store's full contract against
// stores of different shard counts.
func testClientStoreContract(t *testing.T, mk func() *shardedStore) {
	t.Run("get-missing", func(t *testing.T) {
		s := mk()
		if _, ok := s.Get("nope"); ok {
			t.Fatal("Get on empty store returned ok")
		}
	})
	t.Run("create-get-delete", func(t *testing.T) {
		s := mk()
		rec := storeRecord(t, 1)
		if !s.Create("a", rec) {
			t.Fatal("Create on fresh id returned false")
		}
		if s.Create("a", storeRecord(t, 2)) {
			t.Fatal("Create on duplicate id returned true")
		}
		got, ok := s.Get("a")
		if !ok || got != rec {
			t.Fatal("Get did not return the created record")
		}
		if !s.Delete("a") {
			t.Fatal("Delete on existing id returned false")
		}
		if s.Delete("a") {
			t.Fatal("Delete on missing id returned true")
		}
		if _, ok := s.Get("a"); ok {
			t.Fatal("record survives Delete")
		}
	})
	t.Run("len-ids-sorted", func(t *testing.T) {
		s := mk()
		want := []ClientID{"a-0", "b-1", "c-2", "d-3", "e-4"}
		// Insert out of order; IDs must come back sorted.
		for i := len(want) - 1; i >= 0; i-- {
			if !s.Create(want[i], storeRecord(t, uint64(i))) {
				t.Fatal("Create failed")
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		got := s.IDs()
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("IDs not sorted: %v", got)
		}
		if len(got) != len(want) {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("IDs = %v, want %v", got, want)
			}
		}
	})
	t.Run("range-visits-all-and-stops", func(t *testing.T) {
		s := mk()
		const n = 20
		for i := 0; i < n; i++ {
			s.Create(ClientID(fmt.Sprintf("dev-%d", i)), storeRecord(t, uint64(i)))
		}
		seen := map[ClientID]bool{}
		s.Range(func(id ClientID, rec *clientRecord) bool {
			if rec == nil {
				t.Fatalf("Range handed nil record for %q", id)
			}
			if seen[id] {
				t.Fatalf("Range visited %q twice", id)
			}
			seen[id] = true
			return true
		})
		if len(seen) != n {
			t.Fatalf("Range visited %d records, want %d", len(seen), n)
		}
		calls := 0
		s.Range(func(ClientID, *clientRecord) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("Range after fn returned false made %d calls, want 1", calls)
		}
	})
	t.Run("replace-all", func(t *testing.T) {
		s := mk()
		s.Create("old", storeRecord(t, 9))
		repl := map[ClientID]*clientRecord{
			"new-1": storeRecord(t, 10),
			"new-2": storeRecord(t, 11),
		}
		s.ReplaceAll(repl)
		if _, ok := s.Get("old"); ok {
			t.Fatal("ReplaceAll kept an old record")
		}
		for id, rec := range repl {
			got, ok := s.Get(id)
			if !ok || got != rec {
				t.Fatalf("ReplaceAll lost %q", id)
			}
		}
		if s.Len() != 2 {
			t.Fatalf("Len after ReplaceAll = %d, want 2", s.Len())
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		s := mk()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					id := ClientID(fmt.Sprintf("w%d-%d", w, i))
					if !s.Create(id, storeRecord(t, uint64(w*100+i))) {
						t.Errorf("concurrent Create(%q) failed", id)
						return
					}
					if _, ok := s.Get(id); !ok {
						t.Errorf("concurrent Get(%q) missed own write", id)
						return
					}
					s.Len()
				}
			}(w)
		}
		wg.Wait()
		if s.Len() != 8*50 {
			t.Fatalf("Len after concurrent creates = %d, want %d", s.Len(), 8*50)
		}
	})
}

func TestShardedStoreContract(t *testing.T) {
	for _, shards := range []int{1, 3, 32} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testClientStoreContract(t, func() *shardedStore { return newShardedStore(shards) })
		})
	}
}

func TestShardedStoreDefaultShards(t *testing.T) {
	s := newShardedStore(0)
	if len(s.shards) != defaultStoreShards {
		t.Fatalf("shard count = %d, want default %d", len(s.shards), defaultStoreShards)
	}
	s = newShardedStore(-4)
	if len(s.shards) != defaultStoreShards {
		t.Fatalf("negative shard count not defaulted")
	}
}

// Records must land on a stable shard regardless of operation, and the
// population should spread across shards rather than clump.
func TestShardedStoreDistribution(t *testing.T) {
	s := newShardedStore(8)
	const n = 400
	for i := 0; i < n; i++ {
		s.Create(ClientID(fmt.Sprintf("device-%04d", i)), storeRecord(t, uint64(i)))
	}
	occupied := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		if len(s.shards[i].clients) > 0 {
			occupied++
		}
		s.shards[i].mu.RUnlock()
	}
	if occupied < len(s.shards)/2 {
		t.Fatalf("only %d/%d shards occupied by %d ids — hash is clumping", occupied, len(s.shards), n)
	}
}
