package auth

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/crp"
)

// TestSaveLoadRoundTripUnderVerifyTraffic snapshots the server while
// verify traffic hammers it (meaningful under -race: SaveState locks
// records one at a time against concurrent mutators) and asserts the
// security invariant the snapshot exists for: every pair burned
// before the save began is still registered — and therefore rejected
// — after the snapshot is loaded into a fresh server.
func TestSaveLoadRoundTripUnderVerifyTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 32
	srv := NewServer(cfg, 7)

	const clients = 8
	ids := make([]ClientID, clients)
	for i := range ids {
		ids[i] = ClientID(fmt.Sprintf("dev-%d", i))
		m := testMap(t, 2048, 60, uint64(100+i), 680)
		if _, err := srv.Enroll(ctx, ids[i], m); err != nil {
			t.Fatal(err)
		}
	}

	// Burn a first round of pairs, journaling each client's physical
	// pairs: this is "burned before the save". The journal detaches
	// before the concurrent traffic starts.
	preSave := burnLog{byID: make(map[ClientID][]crp.PairBit, clients)}
	srv.AttachJournal(&preSave)
	for _, id := range ids {
		for j := 0; j < 4; j++ {
			ch, err := srv.IssueChallenge(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Verify(ctx, id, ch.ID, crp.NewResponse(len(ch.Bits))); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.AttachJournal(nil)
	// Save concurrently with fresh traffic on every client.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id ClientID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, err := srv.IssueChallenge(ctx, id)
				if err != nil {
					if errors.Is(err, ErrExhausted) {
						return
					}
					t.Errorf("issue %s: %v", id, err)
					return
				}
				if _, err := srv.Verify(ctx, id, ch.ID, crp.NewResponse(len(ch.Bits))); err != nil {
					t.Errorf("verify %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	var snapshot bytes.Buffer
	if err := srv.SaveState(&snapshot); err != nil {
		t.Fatalf("save under traffic: %v", err)
	}
	close(stop)
	wg.Wait()

	loaded := NewServer(cfg, 8)
	if err := loaded.LoadState(&snapshot); err != nil {
		t.Fatalf("load: %v", err)
	}
	for id, pairs := range preSave.byID {
		rec, ok := loaded.store.Get(id)
		if !ok {
			t.Fatalf("client %s missing after load", id)
		}
		rec.mu.Lock()
		for _, p := range pairs {
			if !rec.registry.IsUsed(p) {
				rec.mu.Unlock()
				t.Fatalf("client %s: pair %+v burned before the save is reusable after the load", id, p)
			}
		}
		rec.mu.Unlock()
	}
}

// burnLog journals each client's burned pairs; the other mutations are
// irrelevant here.
type burnLog struct {
	captureJournal
	byID map[ClientID][]crp.PairBit
}

func (l *burnLog) JournalBurn(id string, pairs []crp.PairBit, _ uint64, _ int) error {
	l.byID[ClientID(id)] = append(l.byID[ClientID(id)], pairs...)
	return nil
}
