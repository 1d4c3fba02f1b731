package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// oraclePlainReplicate is the materializing plain-mode replicate the pair
// sweep replaced: copy every picked block's records, re-timed to their
// position, into one resampled series and sweep all shared draw keys over
// it. It returns the replicate's biased and unbiased histograms and record
// count (n == 0 for an all-empty replicate).
func oraclePlainReplicate(e *Estimator, bb *bootBlocks, src *rng.Source) (b, u *histogram.Histogram, n int) {
	numBlocks := len(bb.ranges)
	var times []timeutil.Millis
	var lats []float64
	b = e.newHist()
	for pos := 0; pos < numBlocks; pos++ {
		pick := src.Intn(numBlocks)
		shift := timeutil.Millis(pos-pick) * bb.blockLen
		r := bb.ranges[pick]
		for _, t := range bb.times[r[0]:r[1]] {
			times = append(times, t+shift)
		}
		lats = append(lats, bb.lats[r[0]:r[1]]...)
		if err := b.AddHistogram(bb.hists[pick]); err != nil {
			panic(err)
		}
	}
	u = e.newHist()
	sweepSortedKeys(times, lats, bb.windowLo, bb.sweepKeys, bb.auxSeed, u)
	return b, u, len(times)
}

// repSources derives the bootstrap's per-replicate streams the way
// bootstrapCI does.
func repSources(seed uint64, resamples int) []*rng.Source {
	base := rng.New(seed)
	out := make([]*rng.Source, resamples)
	for rep := range out {
		out[rep] = base.Split(uint64(rep))
	}
	return out
}

// histsEqual compares two histograms' counts and totals bit for bit.
func histsEqual(a, b *histogram.Histogram) bool {
	if a.Bins() != b.Bins() || math.Float64bits(a.Total()) != math.Float64bits(b.Total()) {
		return false
	}
	for i := 0; i < a.Bins(); i++ {
		if math.Float64bits(a.Count(i)) != math.Float64bits(b.Count(i)) {
			return false
		}
	}
	return true
}

// exactColumns builds sorted columns over numBlocks blocks of blockLen
// shaped to hit every edge case of the pair sweep: some interior blocks
// empty, some holding a single record, duplicate instants (equal-time
// runs, including at a block's first and last record), and records on
// even spacings so integer draw instants land on exact midpoints. Block 0
// and the last block are never empty (they define the window). Latencies
// are distinct per record, so the unbiased histogram (one bin per
// millisecond) pins which record each draw adopted.
func exactColumns(src *rng.Source, numBlocks int, blockLen timeutil.Millis) ([]timeutil.Millis, []float64) {
	var times []timeutil.Millis
	for b := 0; b < numBlocks; b++ {
		lo := timeutil.Millis(b) * blockLen
		kind := src.Intn(4)
		if b == 0 || b == numBlocks-1 {
			kind = 2 + src.Intn(2)
		}
		switch kind {
		case 0: // empty
		case 1: // single record
			times = append(times, lo+timeutil.Millis(src.Intn(int(blockLen))))
		case 2: // even spacing with duplicates: exact midpoints and runs
			for t := lo + timeutil.Millis(src.Intn(3)); t < lo+blockLen; t += 2 + 2*timeutil.Millis(src.Intn(3)) {
				for d := 1 + src.Intn(3); d > 0; d-- {
					times = append(times, t)
				}
			}
		default: // sparse random instants, runs at both ends
			first := lo + timeutil.Millis(src.Intn(int(blockLen)/4))
			last := lo + blockLen - 1 - timeutil.Millis(src.Intn(int(blockLen)/4))
			times = append(times, first, first)
			for k := src.Intn(6); k > 0; k-- {
				times = append(times, first+timeutil.Millis(src.Intn(int(last-first+1))))
			}
			times = append(times, last, last)
		}
	}
	slices.Sort(times)
	lats := make([]float64, len(times))
	for i := range lats {
		lats[i] = float64(i%997) + 0.5
	}
	return times, lats
}

// TestPairSweepMatchesMaterializedReplicates is the pair sweep's exactness
// property: on columns with duplicate instants, exact midpoints, empty and
// single-record blocks, every replicate's biased and unbiased histograms
// — and hence its curve — are bit-identical to the materializing
// replicate's, for block counts from 2 to more than the resample count and
// at any worker count.
func TestPairSweepMatchesMaterializedReplicates(t *testing.T) {
	e := testEstimator(t, func(o *Options) {
		o.BinWidthMS = 1
		o.MaxLatencyMS = 1000
		o.ReferenceMS = 0.5
		o.SGWindow = 3
		o.SGDegree = 1
		o.MinUnbiasedCount = 0
		o.UnbiasedPerSample = 3
		o.Workers = 1
	})
	const blockLen = 24
	src := rng.New(2024)
	cases, edgeTotal, okCurves := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		numBlocks := 2 + trial%11 // 2..12, past the resample count below
		resamples := 2 + src.Intn(6)
		times, lats := exactColumns(src, numBlocks, blockLen)
		bb, err := e.buildBootBlocks(times, lats, blockLen, true)
		if err != nil {
			t.Fatal(err)
		}
		seed := src.Uint64()
		var ref []*Curve
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("trial %d (B=%d R=%d workers=%d)", trial, numBlocks, resamples, workers)
			ps := e.sweepPairs(bb, repSources(seed, resamples), workers)
			oracleSrcs := repSources(seed, resamples)
			for rep := 0; rep < resamples; rep++ {
				wantB, wantU, wantN := oraclePlainReplicate(e, bb, oracleSrcs[rep])
				b, u, n, edges, err := e.assemble(ps, rep)
				if wantN == 0 {
					if err != errEmptyRecords {
						t.Fatalf("%s rep %d: all-empty replicate gave %v", name, rep, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s rep %d: %v", name, rep, err)
				}
				if n != wantN || !histsEqual(b, wantB) {
					t.Fatalf("%s rep %d: biased histogram differs (n %d vs %d)", name, rep, n, wantN)
				}
				if !histsEqual(u, wantU) {
					t.Fatalf("%s rep %d: unbiased histogram differs", name, rep)
				}
				edgeTotal += edges
				cases++
			}
			outs, _, _ := e.plainReplicates(bb, repSources(seed, resamples), workers)
			if ref == nil {
				ref = outs
				for _, c := range outs {
					if c != nil {
						okCurves++
					}
				}
				continue
			}
			for rep := range outs {
				if (outs[rep] == nil) != (ref[rep] == nil) {
					t.Fatalf("%s rep %d: replicate skipped at one worker count only", name, rep)
				}
				if outs[rep] != nil {
					curvesEqual(t, name, ref[rep], outs[rep])
				}
			}
		}
	}
	t.Logf("%d replicate comparisons, %d edge draws, %d curves", cases, edgeTotal, okCurves)
	if cases < 300 || edgeTotal == 0 || okCurves == 0 {
		t.Fatalf("vacuous: %d replicate comparisons, %d edge draws, %d curves", cases, edgeTotal, okCurves)
	}
}

// TestPairSweepCurvesMatchOracleOnTraffic runs the comparison at curve
// level on realistic traffic with the default estimator: the bootstrap's
// replicate curves equal those the materializing replicates finish to.
func TestPairSweepCurvesMatchOracleOnTraffic(t *testing.T) {
	records := confoundedRecords(58)
	e := testEstimator(t, nil)
	times, lats := columnsOf(records)
	bb, err := e.buildBootBlocks(times, lats, 6*timeutil.MillisPerHour, true)
	if err != nil {
		t.Fatal(err)
	}
	const resamples = 8
	outs, sweeps, _ := e.plainReplicates(bb, repSources(3, resamples), 0)
	if max := len(bb.ranges) * len(bb.ranges); sweeps > max {
		t.Fatalf("%d pair sweeps exceed the %d distinct pairs", sweeps, max)
	}
	srcs := repSources(3, resamples)
	for rep := 0; rep < resamples; rep++ {
		b, u, n := oraclePlainReplicate(e, bb, srcs[rep])
		want, err := e.finishCurve(nil, b, u, n, len(bb.sweepKeys))
		if err != nil {
			t.Fatal(err)
		}
		if outs[rep] == nil {
			t.Fatalf("rep %d skipped", rep)
		}
		curvesEqual(t, fmt.Sprintf("rep %d", rep), want, outs[rep])
	}
}
