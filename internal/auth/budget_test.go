package auth

import (
	"context"
	"testing"
	"time"
)

func TestDeadlineBudgetCarveSplitsRemaining(t *testing.T) {
	b := DeadlineBudget{}.WithBudgetDefaults()
	parent, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	attempt, acancel := b.Carve(parent, 3)
	defer acancel()
	dl, ok := attempt.Deadline()
	if !ok {
		t.Fatal("carved context has no deadline")
	}
	left := time.Until(dl)
	if left > 1100*time.Millisecond || left < 700*time.Millisecond {
		t.Fatalf("3s split across 3 attempts gave %v, want ~1s", left)
	}
}

func TestDeadlineBudgetCarveFloor(t *testing.T) {
	// 1s across 50 attempts is a 20ms share; the 200ms floor lifts it.
	b := DeadlineBudget{Floor: 200 * time.Millisecond, Default: time.Second}
	parent, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	attempt, acancel := b.Carve(parent, 50)
	defer acancel()
	dl, ok := attempt.Deadline()
	if !ok {
		t.Fatal("carved context has no deadline")
	}
	if left := time.Until(dl); left < 120*time.Millisecond {
		t.Fatalf("floor not applied: attempt got %v, floor is 200ms", left)
	}
}

func TestDeadlineBudgetCarveCappedByParent(t *testing.T) {
	// An exhausted budget cannot be extended by the floor: the attempt
	// expires with the caller.
	b := DeadlineBudget{Floor: 500 * time.Millisecond, Default: time.Second}
	parent, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	attempt, acancel := b.Carve(parent, 3)
	defer acancel()
	dl, ok := attempt.Deadline()
	if !ok {
		t.Fatal("carved context has no deadline")
	}
	if left := time.Until(dl); left > 100*time.Millisecond {
		t.Fatalf("attempt outlives the caller's deadline: %v", left)
	}
}

func TestDeadlineBudgetCarveDefault(t *testing.T) {
	b := DeadlineBudget{Floor: 50 * time.Millisecond, Default: 500 * time.Millisecond}
	attempt, acancel := b.Carve(context.Background(), 3)
	defer acancel()
	dl, ok := attempt.Deadline()
	if !ok {
		t.Fatal("deadline-free caller must still get a per-attempt deadline")
	}
	if left := time.Until(dl); left > 600*time.Millisecond {
		t.Fatalf("default allowance exceeded: %v", left)
	}
}

func TestDeadlineBudgetCarveClampsAttempts(t *testing.T) {
	b := DeadlineBudget{}.WithBudgetDefaults()
	parent, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	attempt, acancel := b.Carve(parent, 0)
	defer acancel()
	dl, ok := attempt.Deadline()
	if !ok {
		t.Fatal("carved context has no deadline")
	}
	if left := time.Until(dl); left < 700*time.Millisecond {
		t.Fatalf("attemptsLeft=0 should clamp to 1 (full remaining), got %v", left)
	}
}
