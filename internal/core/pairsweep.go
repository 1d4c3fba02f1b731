package core

import (
	"sort"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// edgeCand is one nearest-record candidate for an edge draw: the shifted
// instant of a block's first or last record and the block-local run of
// equal-time records at that end, as an index range [lo, hi] into the
// partition's latency column. ok is false where no record exists on that
// side of the draw.
type edgeCand struct {
	t      timeutil.Millis
	lo, hi int
	ok     bool
}

// pairSweep is the plain-mode bootstrap's replicate state. A replicate's
// resampled series places block picks[c] at position c, shifted by
// (c-picks[c])·BlockLen, so its records at position c occupy exactly the
// position's cell [c·BlockLen, (c+1)·BlockLen) of draw-key space. A draw key
// in cell c that lies between the shifted block's first and last record
// adopts a record of that block whatever the neighbouring picks are; only
// the cell's *edge* draws (before the first record, after the last, or
// every draw of an empty block) depend on the neighbours.
type pairSweep struct {
	bb *bootBlocks
	// cellLo[c] is the rank of the first draw key in cell c; cellLo[B] is
	// the key count.
	cellLo []int
	// headHi[p] and tailLo[p] bound the equal-time runs at block p's first
	// and last record (meaningful for non-empty blocks only).
	headHi, tailLo []int

	// picks[rep] are replicate rep's block picks by position, and us[rep]
	// its unbiased histogram: the summed pair partials until assemble adds
	// the edge draws.
	picks [][]int
	us    []*histogram.Histogram
	// sweeps counts the (position, block) pairs swept.
	sweeps int
}

// newPairSweep derives the key cells and block end runs of a partition.
func newPairSweep(bb *bootBlocks) *pairSweep {
	numBlocks := len(bb.ranges)
	ps := &pairSweep{
		bb:     bb,
		cellLo: make([]int, numBlocks+1),
		headHi: make([]int, numBlocks),
		tailLo: make([]int, numBlocks),
	}
	keys := bb.sweepKeys
	k := 0
	for c := 0; c < numBlocks; c++ {
		edge := uint64(timeutil.Millis(c) * bb.blockLen)
		for k < len(keys) && keys[k] < edge {
			k++
		}
		ps.cellLo[c] = k
	}
	ps.cellLo[numBlocks] = len(keys)
	for p, r := range bb.ranges {
		if r[0] == r[1] {
			continue
		}
		hi := r[0]
		for hi+1 < r[1] && bb.times[hi+1] == bb.times[r[0]] {
			hi++
		}
		lo := r[1] - 1
		for lo > r[0] && bb.times[lo-1] == bb.times[r[1]-1] {
			lo--
		}
		ps.headHi[p], ps.tailLo[p] = hi, lo
	}
	return ps
}

// shift is the time shift of block p placed at position c.
func (ps *pairSweep) shift(c, p int) timeutil.Millis {
	return timeutil.Millis(c-p) * ps.bb.blockLen
}

// interior returns the key-rank range [a, z) of cell c whose draws fall
// between non-empty block p's first and last shifted record (inclusive).
func (ps *pairSweep) interior(c, p int) (a, z int) {
	bb := ps.bb
	r := bb.ranges[p]
	off := ps.shift(c, p) - bb.windowLo
	first := uint64(bb.times[r[0]] + off)
	last := uint64(bb.times[r[1]-1] + off)
	lo, hi := ps.cellLo[c], ps.cellLo[c+1]
	keys := bb.sweepKeys[lo:hi]
	a = lo + sort.Search(len(keys), func(i int) bool { return keys[i] >= first })
	z = lo + sort.Search(len(keys), func(i int) bool { return keys[i] > last })
	return a, z
}

// sweepPair accumulates the interior draws of (cell c, block p) into h and
// reports whether any were swept (none for an empty block). Shifting the
// window origin by the block's displacement instead of the records lets
// the sweep read the partition's columns in place, and offsetting auxSeed
// by the range's first rank keeps every draw's tie-break
// Mix64(auxSeed + global rank) — so each draw adopts exactly the record
// the full resampled-series sweep would.
func (ps *pairSweep) sweepPair(c, p int, h *histogram.Histogram) bool {
	bb := ps.bb
	r := bb.ranges[p]
	if r[0] == r[1] {
		return false
	}
	a, z := ps.interior(c, p)
	if a == z {
		return false
	}
	sweepSortedKeys(bb.times[r[0]:r[1]], bb.lats[r[0]:r[1]], bb.windowLo-ps.shift(c, p),
		bb.sweepKeys[a:z], bb.auxSeed+uint64(a), h)
	return true
}

// head and tail are the edge candidates at block p's first and last record
// when placed at position c.
func (ps *pairSweep) head(c, p int) edgeCand {
	r := ps.bb.ranges[p]
	return edgeCand{t: ps.bb.times[r[0]] + ps.shift(c, p), lo: r[0], hi: ps.headHi[p], ok: true}
}

func (ps *pairSweep) tail(c, p int) edgeCand {
	r := ps.bb.ranges[p]
	return edgeCand{t: ps.bb.times[r[1]-1] + ps.shift(c, p), lo: ps.tailLo[p], hi: r[1] - 1, ok: true}
}

// resolveEdges adds the draws of key ranks [from, to) to u, each adopting
// the nearer of left and right with sweepSortedKeys' exact rules: a missing
// side loses, an exact midpoint goes by the top bit of the rank's aux, and
// an equal-time run is picked into by aux modulo its length. Keys are
// sorted, so the draws split by binary search into a left range, the exact
// midpoints, and a right range.
func (ps *pairSweep) resolveEdges(from, to int, left, right edgeCand, u *histogram.Histogram) {
	if from == to {
		return
	}
	switch {
	case !left.ok:
		ps.adopt(from, to, right, u)
		return
	case !right.ok:
		ps.adopt(from, to, left, u)
		return
	}
	bb := ps.bb
	keys := bb.sweepKeys[from:to]
	// Draw instant t is nearer left iff 2t < left.t + right.t.
	twice := func(i int) timeutil.Millis { return 2 * (bb.windowLo + timeutil.Millis(keys[i])) }
	sum := left.t + right.t
	m1 := from + sort.Search(len(keys), func(i int) bool { return twice(i) >= sum })
	m2 := from + sort.Search(len(keys), func(i int) bool { return twice(i) > sum })
	ps.adopt(from, m1, left, u)
	for k := m1; k < m2; k++ {
		aux := rng.Mix64(bb.auxSeed + uint64(k))
		j := right
		if aux>>63 == 0 {
			j = left
		}
		u.Add(bb.lats[j.lo+int(aux%uint64(j.hi-j.lo+1))])
	}
	ps.adopt(m2, to, right, u)
}

// adopt adds the draws of key ranks [from, to), all nearest to candidate
// j, to u: in bulk when j is a single record, else one uniform pick from
// j's equal-time run per draw.
func (ps *pairSweep) adopt(from, to int, j edgeCand, u *histogram.Histogram) {
	bb := ps.bb
	switch {
	case from >= to:
	case j.hi == j.lo:
		u.AddWeighted(bb.lats[j.lo], float64(to-from))
	default:
		for k := from; k < to; k++ {
			aux := rng.Mix64(bb.auxSeed + uint64(k))
			u.Add(bb.lats[j.lo+int(aux%uint64(j.hi-j.lo+1))])
		}
	}
}

// edges adds the edge draws of a replicate with the given picks to u and
// returns how many there were. Each edge draw's neighbours are the end
// records of the nearest non-empty positions on either side.
func (ps *pairSweep) edges(picks []int, u *histogram.Histogram) int {
	bb := ps.bb
	numBlocks := len(picks)
	empty := func(c int) bool { r := bb.ranges[picks[c]]; return r[0] == r[1] }
	// right[c] is the head of the first non-empty position >= c.
	right := make([]edgeCand, numBlocks+1)
	for c := numBlocks - 1; c >= 0; c-- {
		right[c] = right[c+1]
		if !empty(c) {
			right[c] = ps.head(c, picks[c])
		}
	}
	var left edgeCand // tail of the last non-empty position < c
	count := 0
	for c, p := range picks {
		lo, hi := ps.cellLo[c], ps.cellLo[c+1]
		if empty(c) {
			ps.resolveEdges(lo, hi, left, right[c+1], u)
			count += hi - lo
			continue
		}
		a, z := ps.interior(c, p)
		ps.resolveEdges(lo, a, left, right[c], u)
		left = ps.tail(c, p)
		ps.resolveEdges(z, hi, left, right[c+1], u)
		count += (a - lo) + (hi - z)
	}
	return count
}

// sweepPairs draws every replicate's block picks from its stream and sums
// the interior partial histograms of the (position, block) pairs it uses
// into its U. Draw keys are shared by all replicates, so a pair recurs
// across replicates and is swept once: only min(R·B, B²) distinct pairs
// exist, each sweeping (n + draws)/B elements on average.
//
// Pairs are processed position-major: the distinct picks at one position
// sweep in parallel, their partials are added into every replicate that
// picked them, and they are dropped before the next position — live
// partials stay at most min(R, B) histograms for any block count.
func (e *Estimator) sweepPairs(bb *bootBlocks, srcs []*rng.Source, workers int) *pairSweep {
	numBlocks := len(bb.ranges)
	ps := newPairSweep(bb)
	ps.picks = make([][]int, len(srcs))
	ps.us = make([]*histogram.Histogram, len(srcs))
	for rep, src := range srcs {
		ps.picks[rep] = make([]int, numBlocks)
		for c := range ps.picks[rep] {
			ps.picks[rep][c] = src.Intn(numBlocks)
		}
		ps.us[rep] = e.newHist()
	}

	partials := make([]*histogram.Histogram, min(len(srcs), numBlocks))
	for i := range partials {
		partials[i] = e.newHist()
	}
	swept := make([]bool, len(partials))
	slot := make([]int, numBlocks) // pick -> partial index, -1 when unused
	for p := range slot {
		slot[p] = -1
	}
	distinct := make([]int, 0, len(partials))
	for c := 0; c < numBlocks; c++ {
		distinct = distinct[:0]
		for _, pk := range ps.picks {
			if p := pk[c]; slot[p] < 0 {
				slot[p] = len(distinct)
				distinct = append(distinct, p)
			}
		}
		ForEachIndex(workers, len(distinct), func(i int) {
			partials[i].Reset()
			swept[i] = ps.sweepPair(c, distinct[i], partials[i])
		})
		for i := range distinct {
			if swept[i] {
				ps.sweeps++
			}
		}
		for rep, pk := range ps.picks {
			// Same binning by construction: AddHistogram cannot fail.
			_ = ps.us[rep].AddHistogram(partials[slot[pk[c]]])
		}
		for _, p := range distinct {
			slot[p] = -1
		}
	}
	return ps
}

// assemble completes replicate rep's histograms: it resolves the
// replicate's edge draws into its U and sums the picked blocks' biased
// histograms into B (time shifts never change latencies). n is the
// resampled series' record count. Histogram counts are integer-valued
// float64s, so U equals, bit for bit, the one a draw-by-draw sweep over the
// materialized resampled series accumulates.
func (e *Estimator) assemble(ps *pairSweep, rep int) (b, u *histogram.Histogram, n, edgeDraws int, err error) {
	bb := ps.bb
	b = e.newHist()
	for _, p := range ps.picks[rep] {
		r := bb.ranges[p]
		n += r[1] - r[0]
		if err := b.AddHistogram(bb.hists[p]); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if n == 0 {
		return nil, nil, 0, 0, errEmptyRecords
	}
	u = ps.us[rep]
	return b, u, n, ps.edges(ps.picks[rep], u), nil
}

// plainReplicates estimates every plain-mode (no-α) replicate without
// materializing a resampled series: sweepPairs sums the shared pair
// partials, then replicates finish in parallel — assemble plus the curve.
// The replicate-duration metric times that per-replicate finish; the pair
// sweeps are shared and show only in the bootstrap's total. outs[rep] is
// nil for a replicate skipped as degenerate (e.g. every pick an empty
// block).
func (e *Estimator) plainReplicates(bb *bootBlocks, srcs []*rng.Source, workers int) (outs []*Curve, pairSweeps, edgeDraws int) {
	ps := e.sweepPairs(bb, srcs, workers)
	outs = make([]*Curve, len(srcs))
	edgeCounts := make([]int, len(srcs))
	ForEachIndex(workers, len(srcs), func(rep int) {
		repStart := time.Now()
		b, u, n, edges, err := e.assemble(ps, rep)
		var c *Curve
		if err == nil {
			edgeCounts[rep] = edges
			c, err = e.finishCurve(nil, b, u, n, len(bb.sweepKeys))
		}
		observeReplicate(repStart, err)
		if err == nil {
			outs[rep] = c
		}
	})
	for _, n := range edgeCounts {
		edgeDraws += n
	}
	return outs, ps.sweeps, edgeDraws
}
