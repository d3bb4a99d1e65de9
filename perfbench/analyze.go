package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// level places a span in the call tree of one transaction: the client
// call at the root, then the device and the first server the client
// reaches, then what that server calls (a cluster node behind the
// router, or the WAL behind a node).
func level(name string) int {
	switch strings.SplitN(name, ".", 2)[0] {
	case "client":
		return 0
	case "device", "server", "router":
		return 1
	}
	return 2
}

// tnode is a span placed in its transaction's tree.
type tnode struct {
	span
	parent int   // index into the analysed slice, -1 at a root
	self   int64 // duration minus the part its children cover
}

// buildTree links each span to the span of the same transaction one
// level up whose interval contains it (the latest-starting one, should
// several), and computes self times.
func buildTree(spans []span) []tnode {
	nodes := make([]tnode, len(spans))
	byTx := make(map[uint64][]int)
	for i, s := range spans {
		nodes[i] = tnode{span: s, parent: -1}
		if s.tx != 0 {
			byTx[s.tx] = append(byTx[s.tx], i)
		}
	}
	for _, group := range byTx {
		for _, i := range group {
			li := level(nodes[i].name)
			for _, j := range group {
				p := nodes[j]
				if level(p.name) != li-1 || p.start > nodes[i].start || p.end < nodes[i].end {
					continue
				}
				if b := nodes[i].parent; b < 0 || p.start > nodes[b].start {
					nodes[i].parent = j
				}
			}
		}
	}
	children := make(map[int][][2]int64)
	for _, n := range nodes {
		if n.parent >= 0 {
			children[n.parent] = append(children[n.parent], [2]int64{n.start, n.end})
		}
	}
	for i := range nodes {
		nodes[i].self = nodes[i].end - nodes[i].start - covered(nodes[i].start, nodes[i].end, children[i])
	}
	return nodes
}

// covered returns how much of [start, end] the union of the intervals
// covers. Children may overlap one another, as the two attempts of a
// hedged BeginAuth do, and are counted once.
func covered(start, end int64, ivs [][2]int64) int64 {
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n           int
	total, self float64 // summed, microseconds
}

// traceReport is what the traced run derives from its spans.
type traceReport struct {
	stats map[string]*layerStat
	// perAuth holds each layer's self time summed over authentication
	// transactions, for the path breakdown.
	perAuth map[string]float64
	auths   int
	remaps  int
	orphans int
}

// rotatedSuffix tags server spans of the first issue after a key
// update.
const rotatedSuffix = "(rotated)"

func analyse(nodes []tnode, txs map[uint64]txInfo) traceReport {
	r := traceReport{stats: make(map[string]*layerStat), perAuth: make(map[string]float64)}
	for _, info := range txs {
		switch info.kind {
		case opAuth, opImpostor:
			r.auths++
		case opRemap:
			r.remaps++
		}
	}
	for _, n := range nodes {
		if n.parent < 0 && level(n.name) > 0 {
			r.orphans++
		}
		name := n.name
		info := txs[n.tx]
		if strings.HasSuffix(name, ".begin") && info.rotated {
			name += rotatedSuffix
		}
		st := r.stats[name]
		if st == nil {
			st = &layerStat{}
			r.stats[name] = st
		}
		st.n++
		st.total += float64(n.end-n.start) / 1e3
		st.self += float64(n.self) / 1e3
		if info.kind != opRemap && n.tx != 0 {
			r.perAuth[n.name] += float64(n.self) / 1e3
		}
	}
	return r
}

// mean total duration of the named spans, in microseconds (0 when none
// ran).
func (r traceReport) mean(names ...string) float64 {
	var sum float64
	n := 0
	for _, name := range names {
		if st := r.stats[name]; st != nil {
			sum += st.total
			n += st.n
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sum of the named spans' total durations, in microseconds.
func (r traceReport) sum(names ...string) float64 {
	var s float64
	for _, name := range names {
		if st := r.stats[name]; st != nil {
			s += st.total
		}
	}
	return s
}

// selfPerAuth is a layer's self time per authentication.
func (r traceReport) selfPerAuth(names ...string) float64 {
	if r.auths == 0 {
		return 0
	}
	var s float64
	for _, name := range names {
		s += r.perAuth[name]
	}
	return s / float64(r.auths)
}

// unexplainedPct is the share of the client Authenticate spans that no
// seam span covers: their own self time.
func (r traceReport) unexplainedPct() float64 {
	st := r.stats["client.auth"]
	if st == nil || st.total == 0 {
		return 0
	}
	return 100 * st.self / st.total
}

// print writes the per-layer table and the per-authentication path
// breakdown.
func (r traceReport) print(w io.Writer) {
	names := make([]string, 0, len(r.stats))
	for name := range r.stats {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		la, lb := level(names[a]), level(names[b])
		if la != lb {
			return la < lb
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, name := range names {
		st := r.stats[name]
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f\n", name, st.n, st.total/float64(st.n), st.self/float64(st.n))
	}
	client := r.mean("client.auth")
	fmt.Fprintf(w, "\nper authentication (%d), self time by layer; client span %.1f us\n", r.auths, client)
	var sum float64
	for _, name := range names {
		if v := r.selfPerAuth(name); v > 0 {
			sum += v
			fmt.Fprintf(w, "  %-26s %10.1f us %6.1f%%\n", name, v, 100*v/client)
		}
	}
	fmt.Fprintf(w, "  %-26s %10.1f us %6.1f%%\n", "sum", sum, 100*sum/client)
	if r.orphans > 0 {
		fmt.Fprintf(w, "%d spans found no parent span\n", r.orphans)
	}
}
