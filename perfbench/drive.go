package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	authenticache "repro"
	"repro/internal/auth"
)

// opTimeout bounds one transaction; a healthy run never comes near it.
const opTimeout = 10 * time.Second

// errGate marks a correctness failure that stops the run: a forged
// accept, a genuine rejection or an untyped error.
var errGate = errors.New("correctness gate")

// tally counts outcomes on the client side. attempted and failed
// count operations; typedErrors counts tries that ended in a typed
// error, and retried the tries beyond each operation's first.
type tally struct {
	attempted, failed    atomic.Int64
	accepted, rejected   atomic.Int64 // verdicts received
	typedErrors, retried atomic.Int64
	gate                 atomic.Pointer[error]
}

type tallySnap struct {
	attempted, failed, accepted, rejected, typedErrors, retried int64
}

func (t *tally) snap() tallySnap {
	return tallySnap{
		attempted:   t.attempted.Load(),
		failed:      t.failed.Load(),
		accepted:    t.accepted.Load(),
		rejected:    t.rejected.Load(),
		typedErrors: t.typedErrors.Load(),
		retried:     t.retried.Load(),
	}
}

func (a tallySnap) sub(b tallySnap) tallySnap {
	return tallySnap{
		attempted:   a.attempted - b.attempted,
		failed:      a.failed - b.failed,
		accepted:    a.accepted - b.accepted,
		rejected:    a.rejected - b.rejected,
		typedErrors: a.typedErrors - b.typedErrors,
		retried:     a.retried - b.retried,
	}
}

func (t *tally) fail(err error) {
	t.gate.CompareAndSwap(nil, &err)
}

// gateErr returns the first correctness failure seen, if any.
func (t *tally) gateErr() error {
	if p := t.gate.Load(); p != nil {
		return *p
	}
	return nil
}

// loadgen runs operations from the simulated fleet against a system.
type loadgen struct {
	devs []*device
	// fleet is how many of devs authenticate in the traffic; the rest
	// are the workload's rotators.
	fleet int
	t     *tracer // nil when untraced
	tl    *tally
	fsys  *memFS // WAL segments of every system the run builds
	// retryExhausted also retries a try refused as exhausted, which
	// the program does not mark retryable, up to maxWarm tries. Only
	// the check of a recovered server sets it: a recovered server
	// redraws its pre-crash challenge stream (see recoverImage), so
	// its draws for a device can line up with a run of challenges that
	// device already burned, such as its warm-up.
	retryExhausted bool
	exhausted      atomic.Int64 // tries refused as exhausted while it is set
}

// bind gives every device fresh responders for a newly enrolled system.
func (dr *loadgen) bind(keys []authenticache.Key) {
	for i, d := range dr.devs {
		d.dev = &clientDevice{Device: auth.NewSimDevice(d.silicon), t: dr.t, id: string(d.id)}
		d.genuine = auth.NewResponder(d.id, d.dev, keys[i])
		d.impDev = &clientDevice{Device: auth.NewSimDevice(d.impostor), t: dr.t, id: string(d.id)}
		d.rotated = false
	}
}

// enroll registers the fleet: two authentication planes and one
// reserved plane per device.
func (dr *loadgen) enroll(ctx context.Context, srv *authenticache.Server) error {
	keys := make([]authenticache.Key, len(dr.devs))
	for i, d := range dr.devs {
		k, err := srv.Enroll(ctx, d.id, d.silicon, reservedVdd)
		if err != nil {
			return fmt.Errorf("enroll %s: %w", d.id, err)
		}
		keys[i] = k
	}
	dr.bind(keys)
	return nil
}

// do runs one operation and reports whether its outcome was correct:
// a genuine device accepted, an impostor rejected, a key update
// completed. A forged accept, a genuine rejection or an untyped error
// trips the gate. A try that ends in a typed error the program marks
// retryable (authenticache.Retryable) is tried once more as a whole
// new transaction, as the program's clients are meant to; a typed
// error on the second try, or a typed error that is not retryable,
// fails the operation.
func (dr *loadgen) do(ctx context.Context, p *pool, slot int, o op) bool {
	d := dr.devs[o.dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	tx := txID(d.idx, d.seq)
	// The first issue after a key update rebuilds the server's key
	// caches, whoever asks for it.
	rotated := d.rotated && o.kind != opRemap
	if o.kind != opRemap {
		d.rotated = false
	}
	dr.t.startTx(d, tx, txInfo{kind: o.kind, rotated: rotated})
	s, on := dr.t.begin()
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	dr.tl.attempted.Add(1)

	ok, err := dr.try(ctx, p, slot, d, o)
	var ae *authenticache.AuthError
	for tries := 1; err != nil && errors.As(err, &ae); tries++ {
		if n := dr.tl.typedErrors.Add(1); n <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", o.kind, d.id, err)
		}
		limit := 2
		exhausted := dr.retryExhausted && errors.Is(err, authenticache.ErrExhausted)
		if exhausted {
			dr.exhausted.Add(1)
			limit = maxWarm
		}
		if tries == limit || !(authenticache.Retryable(err) || exhausted) {
			break
		}
		dr.tl.retried.Add(1)
		ok, err = dr.try(ctx, p, slot, d, o)
	}
	if on {
		name := "client.auth"
		if o.kind == opRemap {
			name = "client.remap"
		}
		dr.t.end(name, tx, s)
	}
	if err != nil && !errors.As(err, &ae) {
		dr.tl.fail(fmt.Errorf("%w: untyped error from %s %s: %v", errGate, o.kind, d.id, err))
	}
	if !ok {
		dr.tl.failed.Add(1)
	}
	return ok
}

// try runs one transaction of an operation on a connection of the
// slot.
func (dr *loadgen) try(ctx context.Context, p *pool, slot int, d *device, o op) (bool, error) {
	wc, done, err := p.get(ctx, slot)
	if err != nil {
		return false, fmt.Errorf("connect: %w", err)
	}
	defer done()
	if o.kind == opRemap {
		if err := wc.Remap(ctx, d.genuine); err != nil {
			return false, err
		}
		d.rotated = true
		return true, nil
	}
	r := d.genuine
	if o.kind == opImpostor {
		r = auth.NewResponder(d.id, d.impDev, d.genuine.Key())
	}
	accepted, err := wc.Authenticate(ctx, r)
	if err != nil {
		return false, err
	}
	if accepted {
		dr.tl.accepted.Add(1)
	} else {
		dr.tl.rejected.Add(1)
	}
	switch {
	case accepted && o.kind == opImpostor:
		dr.tl.fail(fmt.Errorf("%w: forged accept of impostor %s", errGate, d.id))
	case !accepted && o.kind == opAuth:
		dr.tl.fail(fmt.Errorf("%w: genuine %s rejected", errGate, d.id))
	}
	return accepted == (o.kind == opAuth), nil
}

// closed runs ops with the given number of workers over the system's
// connections,
// each sending its next operation when the previous one completes. It
// returns the time taken and, per operation, its latency (+Inf when
// the outcome was wrong).
func (dr *loadgen) closed(ctx context.Context, s *system, ops []op, workers int) (time.Duration, []float64) {
	lat := make([]float64, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		slot := w % conns
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || dr.tl.gateErr() != nil {
					return
				}
				t0 := time.Now()
				if dr.do(ctx, s.pool, slot, ops[i]) {
					lat[i] = time.Since(t0).Seconds()
				} else {
					lat[i] = math.Inf(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lat
}

// open sends ops on a fixed schedule, one every 1/rate seconds whatever
// the system's state, alternating between the clients. Latency runs
// from each operation's due time, so a stall also charges the
// operations queued behind it; late records how far behind schedule
// the generator sent each one.
func (dr *loadgen) open(ctx context.Context, s *system, ops []op, rate float64) (lat, late []float64) {
	lat = make([]float64, len(ops))
	late = make([]float64, len(ops))
	gap := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := range ops {
		if dr.tl.gateErr() != nil {
			break
		}
		due := start.Add(time.Duration(i) * gap)
		sleepUntil(due)
		late[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if dr.do(ctx, s.pool, i%conns, ops[i]) {
				lat[i] = time.Since(due).Seconds()
			} else {
				lat[i] = math.Inf(1)
			}
		}(i)
	}
	wg.Wait()
	return lat, late
}

// maxWarm bounds the warm-up authentications of one device.
const maxWarm = 32

// warm authenticates each device until it has answered on every
// authentication plane, so the server's and the device's key caches
// are built for all of them. It runs one transaction at a time: the
// server's plane draws, and with them the number of warm-up
// authentications, are then a function of the seed alone.
func (dr *loadgen) warm(ctx context.Context, s *system) error {
	all := uint32(1)<<len(authVdds) - 1
	for _, d := range dr.devs[:dr.fleet] {
		for try := 0; d.dev.planes.Load() != all; try++ {
			if try == maxWarm {
				return fmt.Errorf("%s answered on planes %b after %d authentications", d.id, d.dev.planes.Load(), try)
			}
			dr.do(ctx, s.pool, 0, op{dev: d.idx, kind: opAuth})
			if err := dr.tl.gateErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// each runs one operation of the given kind per device, workers at a
// time.
func (dr *loadgen) each(ctx context.Context, s *system, k opKind, workers int) []float64 {
	ops := make([]op, len(dr.devs))
	for i := range ops {
		ops[i] = op{dev: i, kind: k}
	}
	_, lat := dr.closed(ctx, s, ops, workers)
	return lat
}

// lagSampler samples how many records each follower trails the
// primary's commit sequence, every millisecond.
type lagSampler struct {
	stopc, done chan struct{}
	samples     []float64
}

func startLagSampler(nodes []*authenticache.ClusterNode) *lagSampler {
	l := &lagSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	if len(nodes) == 0 {
		close(l.done)
		return l
	}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stopc:
				return
			case <-tick.C:
			}
			commit := nodes[0].Status().CommitSeq
			for _, n := range nodes[1:] {
				lag := 0.0
				if a := n.Status().AppliedSeq; commit > a {
					lag = float64(commit - a)
				}
				l.samples = append(l.samples, lag)
			}
		}
	}()
	return l
}

// stop ends sampling and returns the samples (none without
// followers).
func (l *lagSampler) stop() []float64 {
	close(l.stopc)
	<-l.done
	return l.samples
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake an idle process through epoll, whose
// millisecond granularity would add up to a millisecond of generator
// lateness to every open-loop operation.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only cuts the sleep short; the loop resumes it.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
