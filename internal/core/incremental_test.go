package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// incStream synthesizes an initial batch plus a sequence of small deltas
// whose times stay inside the initial observation window (the live dirty
// case), with dupRate of delta times duplicating an already-used instant to
// exercise equal-timestamp runs.
type incStream struct {
	src     *rng.Source
	horizon timeutil.Millis
	used    []timeutil.Millis
	seq     uint64
	dupRate float64
}

func newIncStream(seed uint64, horizon timeutil.Millis, dupRate float64) *incStream {
	return &incStream{src: rng.New(seed), horizon: horizon, dupRate: dupRate}
}

// initial returns n sorted records pinning the window edges at 0 and
// horizon-1.
func (g *incStream) initial(n int) ([]timeutil.Millis, []float64, []uint64) {
	times := make([]timeutil.Millis, n)
	lats := make([]float64, n)
	seqs := make([]uint64, n)
	times[0] = 0
	times[1] = g.horizon - 1
	for i := 2; i < n; i++ {
		times[i] = timeutil.Millis(g.src.Uint64n(uint64(g.horizon)))
	}
	for i := range lats {
		lats[i] = 50 + 2500*g.src.Float64()
		g.seq++
		seqs[i] = g.seq
	}
	sort.Sort(&colSorter{times, lats, seqs})
	g.used = append(g.used, times...)
	return times, lats, seqs
}

// delta returns d sorted in-window records.
func (g *incStream) delta(d int) ([]timeutil.Millis, []float64, []uint64) {
	times := make([]timeutil.Millis, d)
	lats := make([]float64, d)
	seqs := make([]uint64, d)
	for i := 0; i < d; i++ {
		if g.src.Bool(g.dupRate) && len(g.used) > 0 {
			times[i] = g.used[g.src.Intn(len(g.used))]
		} else {
			times[i] = 1 + timeutil.Millis(g.src.Uint64n(uint64(g.horizon-2)))
		}
		lats[i] = 50 + 2500*g.src.Float64()
		g.seq++
		seqs[i] = g.seq
	}
	sort.Sort(&colSorter{times, lats, seqs})
	g.used = append(g.used, times...)
	return times, lats, seqs
}

type colSorter struct {
	times []timeutil.Millis
	lats  []float64
	seqs  []uint64
}

func (c *colSorter) Len() int { return len(c.times) }
func (c *colSorter) Less(i, j int) bool {
	return summaryLess(c.times[i], c.seqs[i], c.times[j], c.seqs[j])
}
func (c *colSorter) Swap(i, j int) {
	c.times[i], c.times[j] = c.times[j], c.times[i]
	c.lats[i], c.lats[j] = c.lats[j], c.lats[i]
	c.seqs[i], c.seqs[j] = c.seqs[j], c.seqs[i]
}

// TestIncrementalMatchesBatch folds a stream of small in-window deltas and
// checks that every EstimatePlain is byte-identical to the batch
// EstimateColumns over the same accumulated columns, while the incremental
// sweep state stays live (no silent degradation to full sweeps).
func TestIncrementalMatchesBatch(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(41, 2*timeutil.MillisPerDay, 0.3)
	inc := e.NewIncremental()
	ref := &Summary{}

	ts, ls, qs := g.initial(4000)
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}

	check := func(step int) {
		t.Helper()
		got, err := inc.EstimatePlain()
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		want, err := e.EstimateColumns(ref.Times, ref.Lats, nil)
		if err != nil {
			t.Fatalf("step %d: batch: %v", step, err)
		}
		if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
			t.Fatalf("step %d: incremental curve diverged from batch (n=%d)", step, ref.Len())
		}
	}
	check(0)
	if !inc.stValid {
		t.Fatal("sweep state not built by first estimate")
	}

	for step := 1; step <= 120; step++ {
		d := 1 + g.src.Intn(4)
		ts, ls, qs := g.delta(d)
		if err := inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	if inc.fullSweep {
		t.Fatal("incremental state degraded to full sweeps on tie-light data")
	}
	if !inc.stValid {
		t.Fatal("sweep state invalid after in-window folds")
	}
	if len(inc.auxDep) == 0 {
		t.Log("note: no aux-dependent draws were exercised") // informational
	}
}

// TestIncrementalTieHeavy quantizes times onto a tiny grid so nearly every
// draw adopts from an equal-timestamp run. The state must degrade to the
// batch sweep — and remain byte-identical to it throughout.
func TestIncrementalTieHeavy(t *testing.T) {
	e := testEstimator(t, nil)
	src := rng.New(99)
	horizon := timeutil.Millis(4000)
	grid := timeutil.Millis(200)
	inc := e.NewIncremental()
	ref := &Summary{}
	var seq uint64

	mk := func(n int, pinEdges bool) ([]timeutil.Millis, []float64, []uint64) {
		ts := make([]timeutil.Millis, n)
		ls := make([]float64, n)
		qs := make([]uint64, n)
		for i := range ts {
			ts[i] = timeutil.Millis(src.Uint64n(uint64(horizon/grid))) * grid
			ls[i] = 50 + 2500*src.Float64()
			seq++
			qs[i] = seq
		}
		if pinEdges {
			ts[0] = 0
			ts[1] = horizon - 1
		}
		sort.Sort(&colSorter{ts, ls, qs})
		return ts, ls, qs
	}

	ts, ls, qs := mk(500, true)
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		got, err := inc.EstimatePlain()
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.EstimateColumns(ref.Times, ref.Lats, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
			t.Fatalf("step %d: tie-heavy incremental diverged from batch", step)
		}
		dts, dls, dqs := mk(3, false)
		if err := inc.Fold(dts, dls, dqs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(dts, dls, dqs); err != nil {
			t.Fatal(err)
		}
	}
	if !inc.fullSweep {
		t.Fatal("tie-heavy data did not trigger the full-sweep degradation")
	}
}

// TestIncrementalWindowMove folds a delta that extends the observation
// window; the sweep state must rebuild and still match batch.
func TestIncrementalWindowMove(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(7, timeutil.MillisPerDay, 0)
	inc := e.NewIncremental()
	ref := &Summary{}

	ts, ls, qs := g.initial(2000)
	for i := range ts {
		ts[i] += timeutil.MillisPerHour // leave room below the window
	}
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		t.Fatal(err)
	}
	if !inc.stValid {
		t.Fatal("state not valid after estimate")
	}

	// Window-moving delta: earlier than everything held.
	dts := []timeutil.Millis{5}
	dls := []float64{123}
	dqs := []uint64{1 << 40}
	if err := inc.Fold(dts, dls, dqs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(dts, dls, dqs); err != nil {
		t.Fatal(err)
	}
	if inc.stValid {
		t.Fatal("window move must invalidate the sweep state")
	}
	got, err := inc.EstimatePlain()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EstimateColumns(ref.Times, ref.Lats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
		t.Fatal("post-rebuild incremental curve diverged from batch")
	}
	if !inc.stValid {
		t.Fatal("state must rebuild lazily at the next estimate")
	}
}

// boundsEqual compares CI bounds bit for bit (NaN == NaN).
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEstimateCIIncrementalMatchesBatch folds deltas and checks that the
// retained-state bootstrap (block hists delta-folded, key plan extended,
// scratch pooled) returns bounds bit-identical to the batch bootstrap.
func TestEstimateCIIncrementalMatchesBatch(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(17, 2*timeutil.MillisPerDay, 0.2)
	inc := e.NewIncremental()
	ref := &Summary{}

	opts := DefaultCIOptions()
	opts.Resamples = 12

	fold := func(ts []timeutil.Millis, ls []float64, qs []uint64) {
		t.Helper()
		if err := inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step int) {
		t.Helper()
		got, err := e.EstimateCIIncremental(inc, opts)
		if err != nil {
			t.Fatalf("step %d: incremental CI: %v", step, err)
		}
		want, err := e.EstimateCIColumns(ref.Times, ref.Lats, opts)
		if err != nil {
			t.Fatalf("step %d: batch CI: %v", step, err)
		}
		if !bytes.Equal(curveBytes(t, got.Curve), curveBytes(t, want.Curve)) {
			t.Fatalf("step %d: point estimates diverged", step)
		}
		if !boundsEqual(got.Lower, want.Lower) || !boundsEqual(got.Upper, want.Upper) {
			t.Fatalf("step %d: bootstrap bounds diverged", step)
		}
		if got.Replicates != want.Replicates {
			t.Fatalf("step %d: replicate counts diverged: %d vs %d", step, got.Replicates, want.Replicates)
		}
	}

	fold(g.initial(3000))
	check(0)
	if inc.CI == nil || !inc.CI.valid {
		t.Fatal("CI state not retained after first incremental estimate")
	}
	for step := 1; step <= 6; step++ {
		fold(g.delta(1 + g.src.Intn(5)))
		check(step)
	}
}

// TestSketchMergeability checks that a delta-maintained sketch is
// bit-identical to a from-scratch sketch over the same data — the property
// that lets the live path trust folded sketch state — and that on
// well-behaved data the sketch bounds pass the KS equivalence gate against
// the exact block bootstrap.
func TestSketchMergeability(t *testing.T) {
	e := testEstimator(t, nil)
	const reps = 40
	const sketchSeed = 7

	build := func(foldDeltas bool) (*Incremental, *CurveCI) {
		g := newIncStream(23, 2*timeutil.MillisPerDay, 0.25)
		inc := e.NewIncremental()
		inc.Sketch = e.NewBootSketch(reps, sketchSeed)
		ts, ls, qs := g.initial(3000)
		if err := inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		var deltas [][3]interface{}
		for i := 0; i < 40; i++ {
			dts, dls, dqs := g.delta(1 + g.src.Intn(4))
			deltas = append(deltas, [3]interface{}{dts, dls, dqs})
		}
		if foldDeltas {
			// Build sweep+sketch state FIRST, then fold deltas through the
			// incremental maintenance path.
			if _, err := inc.EstimatePlain(); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range deltas {
			if err := inc.Fold(d[0].([]timeutil.Millis), d[1].([]float64), d[2].([]uint64)); err != nil {
				t.Fatal(err)
			}
		}
		point, err := inc.EstimatePlain()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultCIOptions()
		opts.Resamples = reps
		opts.KeepSamples = true
		ci, err := inc.Sketch.SketchBounds(inc, point, opts)
		if err != nil {
			t.Fatal(err)
		}
		return inc, ci
	}

	incMaintained, maintained := build(true)
	if incMaintained.fullSweep {
		t.Fatal("sketch test data unexpectedly degraded to full sweep")
	}
	_, rebuilt := build(false)
	if !boundsEqual(maintained.Lower, rebuilt.Lower) || !boundsEqual(maintained.Upper, rebuilt.Upper) {
		t.Fatal("delta-maintained sketch bounds differ from rebuilt sketch bounds")
	}

	// On this dataset — iid latencies, so every wiggle in the point curve
	// is sampling accident — the block bootstrap's re-timing flattens the
	// accidental structure while the Poisson sketch preserves it: the two
	// replicate distributions genuinely differ, and the KS gate must say
	// so (this is the case where a live engine keeps serving exact bounds).
	opts := DefaultCIOptions()
	opts.Resamples = reps
	opts.KeepSamples = true
	times, lats := incMaintained.Columns()
	exact, err := e.EstimateCIColumns(times, lats, opts)
	if err != nil {
		t.Fatal(err)
	}
	mean, maxStat, bins, err := KSBinsStat(exact, maintained)
	if err != nil {
		t.Fatal(err)
	}
	crit := KSCritical(reps, reps, 0.01)
	t.Logf("KS gate (accidental structure): mean=%.3f max=%.3f over %d bins (critical %.3f)", mean, maxStat, bins, crit)
	if mean <= crit {
		t.Fatalf("KS gate failed to reject divergent bootstrap distributions: mean %.3f <= critical %.3f", mean, crit)
	}
}

// TestSketchKSGateOnPlantedData runs the equivalence gate on data with a
// real planted latency preference (the paper's regime): structure that
// survives block re-timing centers both bootstraps on the same curve, so
// the sketch must pass.
func TestSketchKSGateOnPlantedData(t *testing.T) {
	e := testEstimator(t, nil)
	const reps = 40
	src := rng.New(10)
	fastLat, slowLat := 250.0, 900.0
	regime := func(tm timeutil.Millis) bool { return (tm/(2*timeutil.MillisPerHour))%2 == 1 }
	records := genRecords(src, 4*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return slowLat
			}
			return fastLat
		},
		0.25,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return 0.5
			}
			return 1.0
		})
	records = usable(records)
	telemetry.SortByTime(records)
	times, lats := columnsOf(records)
	seqs := make([]uint64, len(times))
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}

	inc := e.NewIncremental()
	inc.Sketch = e.NewBootSketch(reps, 7)
	if err := inc.Fold(times, lats, seqs); err != nil {
		t.Fatal(err)
	}
	point, err := inc.EstimatePlain()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultCIOptions()
	opts.Resamples = reps
	opts.KeepSamples = true
	sk, err := inc.Sketch.SketchBounds(inc, point, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.EstimateCIColumns(times, lats, opts)
	if err != nil {
		t.Fatal(err)
	}
	mean, maxStat, bins, err := KSBinsStat(exact, sk)
	if err != nil {
		t.Fatal(err)
	}
	crit := KSCritical(reps, reps, 0.01)
	t.Logf("KS gate (planted): mean=%.3f max=%.3f over %d bins (critical %.3f)", mean, maxStat, bins, crit)
	if mean > crit {
		t.Fatalf("sketch failed KS equivalence gate on planted data: mean %.3f > critical %.3f", mean, crit)
	}
}

// BenchmarkIncrementalDirty is the dirty-epoch cost this PR exists for:
// fold one in-window record, re-estimate. The batch equivalent rescans and
// resweeps everything.
func BenchmarkIncrementalDirty(b *testing.B) {
	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	horizon := 2 * timeutil.MillisPerDay
	const n = 50000
	ts := make([]timeutil.Millis, n)
	ls := make([]float64, n)
	qs := make([]uint64, n)
	ts[0], ts[1] = 0, horizon-1
	for i := 2; i < n; i++ {
		ts[i] = timeutil.Millis(src.Uint64n(uint64(horizon)))
	}
	for i := range ls {
		ls[i] = 50 + 2500*src.Float64()
		qs[i] = uint64(i + 1)
	}
	sort.Sort(&colSorter{ts, ls, qs})
	inc := e.NewIncremental()
	if err := inc.Fold(ts, ls, qs); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		b.Fatal(err)
	}
	seq := uint64(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		dts := []timeutil.Millis{1 + timeutil.Millis(src.Uint64n(uint64(horizon-2)))}
		dls := []float64{50 + 2500*src.Float64()}
		dqs := []uint64{seq}
		if err := inc.Fold(dts, dls, dqs); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.EstimatePlain(); err != nil {
			b.Fatal(err)
		}
	}
	if inc.fullSweep {
		b.Fatal("benchmark unexpectedly degraded to full sweeps")
	}
}

// TestCIStateFoldsAppendsAcrossBlocks pins that appends newer than all
// history — the normal live case — fold into CIState's block histograms
// instead of invalidating them, growing the block list when they cross a
// block boundary, and that the folded histograms equal a from-scratch
// rebuild; late records inside the window fold too. A record before the
// window's first instant still invalidates.
func TestCIStateFoldsAppendsAcrossBlocks(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(23, 2*timeutil.MillisPerDay, 0.2)
	inc := e.NewIncremental()
	ref := &Summary{}
	opts := DefaultCIOptions()
	opts.Resamples = 6

	fold := func(ts []timeutil.Millis, ls []float64, qs []uint64) {
		t.Helper()
		if err := inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step int) {
		t.Helper()
		got, err := e.EstimateCIIncremental(inc, opts)
		if err != nil {
			t.Fatalf("step %d: incremental CI: %v", step, err)
		}
		want, err := e.EstimateCIColumns(ref.Times, ref.Lats, opts)
		if err != nil {
			t.Fatalf("step %d: batch CI: %v", step, err)
		}
		if !boundsEqual(got.Lower, want.Lower) || !boundsEqual(got.Upper, want.Upper) {
			t.Fatalf("step %d: bootstrap bounds diverged", step)
		}
	}
	appendAfter := func(span timeutil.Millis, d int) {
		last := ref.Times[len(ref.Times)-1]
		ts := make([]timeutil.Millis, d)
		ls := make([]float64, d)
		qs := make([]uint64, d)
		for i := range ts {
			ts[i] = last + 1 + span*timeutil.Millis(i)/timeutil.Millis(d)
			ls[i] = 50 + 2500*g.src.Float64()
			g.seq++
			qs[i] = g.seq
		}
		fold(ts, ls, qs)
	}

	fold(g.initial(3000))
	check(0)
	startBlocks := inc.CI.numBlocks
	for step := 1; step <= 4; step++ {
		appendAfter(4*timeutil.MillisPerHour, 150)
		fold(g.delta(3)) // late records inside the window
		if !inc.CI.valid {
			t.Fatalf("step %d: append newer than all history invalidated the CI state", step)
		}
		fresh := &CIState{}
		if _, err := fresh.refresh(e, ref.Times, ref.Lats, opts.BlockLen); err != nil {
			t.Fatal(err)
		}
		if inc.CI.numBlocks != fresh.numBlocks || len(inc.CI.hists) != len(fresh.hists) {
			t.Fatalf("step %d: folded %d blocks, rebuild has %d", step, inc.CI.numBlocks, fresh.numBlocks)
		}
		for b := range fresh.hists {
			if !histsEqual(inc.CI.hists[b], fresh.hists[b]) {
				t.Fatalf("step %d: block %d histogram differs from rebuild", step, b)
			}
		}
		check(step)
	}
	if inc.CI.numBlocks <= startBlocks+1 {
		t.Fatalf("appends grew %d blocks to %d; want boundary crossings", startBlocks, inc.CI.numBlocks)
	}

	g.seq++
	fold([]timeutil.Millis{ref.Times[0] - 1}, []float64{400}, []uint64{g.seq})
	if inc.CI.valid {
		t.Fatal("a record before the window kept the CI state valid")
	}
	check(5)
}
