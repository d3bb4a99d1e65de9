package main

import "fmt"

// workload is one fixed-work traffic mix. Its epochs are given for a
// 10-second run and scale linearly with --seconds, so a run's
// work is a function of its arguments alone, never of its throughput:
// pairs burn forever, so registry size, WAL bytes and snapshot size all
// grow with the operations done, and a wall-time run would end each
// run in a different state.
type workload struct {
	name string
	why  string

	cluster bool
	// devices is the fleet size; lines the simulated cache lines per
	// device; errors the error cells per voltage plane.
	devices, lines, errors int
	// remapEvery makes every remapEvery-th operation a key update (0:
	// none). A key update drops the device's key caches on both
	// authentication planes, and each plane is rebuilt by the first
	// authentication that draws it. With a key update every third
	// operation exactly half of all authentications are such rebuilds
	// (two planes drawn at random: E[rebuilds]/E[authentications] =
	// 1/2), so the median falls in the gap between warm issues and
	// rebuilds and swings by 2-3x between rounds. Every fifth puts a
	// third of them in rebuilds and the median among warm issues.
	remapEvery int
	// rotators are devices enrolled beside the fleet that never
	// authenticate in the traffic. Between the phases of every epoch
	// each of them takes rotatorUpdates key updates, one at a time: the
	// key-update latency of a workload whose traffic has none, sampled
	// across the whole run without disturbing the fleet's warm caches.
	rotators int
	// setups is how many times set-up runs; setup_s is their median.
	// A set-up of a tenth of a second is moved by any one slow moment
	// of the host, so it runs more often.
	setups int
	// opens is how many times each recovery round opens the crash
	// image; recover_s is the median over all of them. Only a round's
	// last open is compacted, so an open costs little beside the
	// compaction, and a recovery of a fifth of a second, moved as
	// easily as a short set-up, takes more samples.
	opens int

	// The traffic runs in epochs, each a closed-loop chunk of chunkOps
	// operations at inFlight concurrency, then the rotators' key
	// updates, then an open-loop round of roundOps operations at
	// openRate per second. Interleaving spreads every metric's samples
	// over the whole run, so a host that is briefly slow or fast moves
	// a few samples, not the result.
	epochs, chunkOps, roundOps int
	openRate                   float64
}

// Fleet-wide constants. Each device has two authentication planes and
// one reserved plane for key updates; 2% of authentications come from
// impostors (right id and key, wrong silicon).
const (
	impostorEvery = 50
	// conns is the number of client connections (at most nproc on the
	// 2-CPU reference machine) and streams the pipelined transactions
	// per connection: 8 in flight keeps router latency far below its
	// 20 ms hedge delay.
	conns    = 2
	streams  = 4
	inFlight = conns * streams
	// rotatorUpdates is how many key updates each rotator takes per
	// epoch. A sweep of one update each lasts about 50 ms, short enough
	// for one busy moment of the host to move a whole epoch's samples.
	rotatorUpdates = 4
	// recoveries is how many rounds recover the crash image, each
	// ending in a compaction; compact_s is the median over the rounds.
	recoveries = 5
)

var authVdds = []int{700, 690}

const reservedVdd = 680

// The open-loop rates are a tenth of each workload's closed-loop
// capacity or less on the reference machine: queueing multiplies
// any change in the host's speed (at half capacity a 10% slower server
// spends 25% longer per request in an M/M/1 queue), so a lightly
// loaded server gives the steadiest latencies.
var workloads = []workload{
	{
		name:    "node-auth",
		why:     "single durable node, 1 MiB caches, authentications only: the hot path (issue, burn, group commit, verify, v2 framing) with warm key caches",
		devices: 256, lines: 16384, errors: 100, rotators: 32, setups: 3, opens: 1,
		epochs: 10, chunkOps: 300, roundOps: 200, openRate: 200,
	},
	{
		name:    "cluster-auth",
		why:     "same fleet through a router into a 3-node cluster: adds the relay hop, delegated issuance, quorum-ack wait and follower apply",
		cluster: true,
		devices: 256, lines: 16384, errors: 100, rotators: 32, setups: 3, opens: 1,
		epochs: 10, chunkOps: 200, roundOps: 200, openRate: 200,
	},
	{
		name:    "node-rotate",
		why:     "single node, 256 KB caches with a dense registry, one operation in five a key update: rotations force key-cache rebuilds",
		devices: 32, lines: 4096, errors: 40, remapEvery: 5, setups: 9, opens: 4,
		epochs: 10, chunkOps: 600, roundOps: 300, openRate: 300,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload with its epochs scaled to a run of the
// given length: a 10-second run has the listed number.
func (w workload) scaled(seconds int) workload {
	w.epochs = max(1, w.epochs*seconds/10)
	return w
}
