package main

import (
	"fmt"
	"sync"

	"repro/internal/auth"
	"repro/internal/errormap"
	"repro/internal/rng"
)

// device is one simulated client. Its silicon (the error maps) comes
// from the workload seed; its responders are rebuilt for every system
// the benchmark sets up, so each set-up pays the same client-side cache
// builds.
type device struct {
	idx      int
	id       auth.ClientID
	silicon  *errormap.Map
	impostor *errormap.Map // different silicon answering under the right key

	// mu keeps one transaction per device at a time.
	mu      sync.Mutex
	seq     uint32
	dev     *clientDevice
	genuine *auth.Responder
	impDev  auth.Device
	// rotated marks a key update not yet followed by an authentication.
	rotated bool
}

// newFleet draws every device's maps from the seed, the workload's
// rotators after its fleet. It runs before set-up is timed.
func newFleet(w workload, seed uint64) []*device {
	r := rng.New(seed)
	g := errormap.NewGeometry(w.lines)
	draw := func() *errormap.Map {
		m := errormap.NewMap(g)
		for _, v := range append(append([]int(nil), authVdds...), reservedVdd) {
			m.AddPlane(v, errormap.RandomPlane(g, w.errors, r))
		}
		return m
	}
	devs := make([]*device, w.devices+w.rotators)
	for i := range devs {
		devs[i] = &device{
			idx:      i,
			id:       auth.ClientID(fmt.Sprintf("dev-%04d", i)),
			silicon:  draw(),
			impostor: draw(),
		}
	}
	return devs
}

type opKind uint8

const (
	opAuth opKind = iota
	opImpostor
	opRemap
)

func (k opKind) String() string {
	return [...]string{"auth", "impostor", "remap"}[k]
}

type op struct {
	dev  int
	kind opKind
}

// schedule draws n operations. Devices are visited in rounds, each a
// fresh permutation of the fleet. The devices that ended one round are
// kept out of the first inFlight places of the next, so two operations
// on one device are always at least inFlight apart and a device never
// waits on itself in the closed loop. Kinds go by position, so every
// seed does the same number of each: with key updates, every
// remapEvery-th operation is one; every fiftieth authentication comes
// from an impostor.
func schedule(r *rng.Rand, w workload, n int) []op {
	ops := make([]op, 0, n)
	auths := 0
	for len(ops) < n {
		recent := make(map[int]bool)
		for _, o := range ops[max(0, len(ops)-inFlight):] {
			recent[o.dev] = true
		}
		var round, deferred []int
		for _, d := range r.Perm(w.devices) {
			if len(round) < inFlight && recent[d] {
				deferred = append(deferred, d)
			} else {
				round = append(round, d)
			}
		}
		for _, d := range append(round, deferred...) {
			if len(ops) == n {
				break
			}
			k := opAuth
			switch {
			case w.remapEvery > 0 && len(ops)%w.remapEvery == w.remapEvery-1:
				k = opRemap
			case auths%impostorEvery == impostorEvery-1:
				k = opImpostor
				auths++
			default:
				auths++
			}
			ops = append(ops, op{dev: d, kind: k})
		}
	}
	return ops
}
