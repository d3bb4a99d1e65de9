package auth

import (
	"context"
	"time"
)

// Deadline budgets: a caller's context deadline is a budget the retry
// loop spends across its attempts, not a per-attempt timeout. Carving
// the remaining time evenly across the attempts still owed keeps the
// last attempt from inheriting a nearly-expired deadline (which would
// make every final retry a guaranteed timeout), while the floor keeps
// an over-subscribed budget from producing attempts too short to
// complete a round trip.

// DeadlineBudget splits a context's remaining time across retry
// attempts. The zero value is unusable; fill every field or use
// WithBudgetDefaults.
type DeadlineBudget struct {
	// Floor is the minimum per-attempt share: even when the remaining
	// budget divided by the attempts left is smaller, an attempt is
	// carved at least this long, so the budget arithmetic never
	// produces attempts too short to complete a round trip. The
	// caller's own deadline still caps the result — a genuinely
	// exhausted budget expires the attempt and the caller together,
	// which is how the retry loop tells budget exhaustion (give up)
	// from a single slow attempt (retry elsewhere).
	Floor time.Duration
	// Default is the per-attempt allowance when the caller's context
	// has no deadline at all. It is what keeps a hung peer from
	// pinning a goroutine forever even for callers that never set
	// deadlines.
	Default time.Duration
}

// WithBudgetDefaults fills zero fields with workable defaults: a
// 50 ms floor and a 2 s default allowance.
func (d DeadlineBudget) WithBudgetDefaults() DeadlineBudget {
	if d.Floor == 0 {
		d.Floor = 50 * time.Millisecond
	}
	if d.Default == 0 {
		d.Default = 2 * time.Second
	}
	return d
}

// Carve derives the context for one attempt: the caller's remaining
// time divided by the attempts still owed (attemptsLeft >= 1), never
// below Floor, or Default when ctx carries no deadline. The returned
// cancel must be called when the attempt finishes.
func (d DeadlineBudget) Carve(ctx context.Context, attemptsLeft int) (context.Context, context.CancelFunc) {
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithTimeout(ctx, d.Default)
	}
	share := time.Until(dl) / time.Duration(attemptsLeft)
	if share < d.Floor {
		share = d.Floor
	}
	return context.WithTimeout(ctx, share)
}
