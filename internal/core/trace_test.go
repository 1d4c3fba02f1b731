package core

import (
	"testing"
	"time"

	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

func TestEstimateRecordsStageSpans(t *testing.T) {
	src := rng.New(7)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	est := testEstimator(t, nil)
	tr := obs.NewTracer("test")
	est.SetTrace(tr.Root())
	if _, err := est.Estimate(records); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	sp := root.Find("estimate")
	if sp == nil {
		t.Fatal("no estimate span recorded")
	}
	for _, stage := range []string{"build_biased_histogram", "sample_unbiased", "savitzky_golay_smooth"} {
		if sp.Find(stage) == nil {
			t.Fatalf("stage span %q missing", stage)
		}
	}
	if v, ok := sp.Attr("records"); !ok || v.(int) != len(records) {
		t.Fatalf("records attr = %v, %v", v, ok)
	}
	if v, ok := sp.Find("sample_unbiased").Attr("draws"); !ok || v.(int) <= 0 {
		t.Fatalf("draws attr = %v, %v", v, ok)
	}
	// Stage durations must fit inside their parent.
	var sum time.Duration
	for _, c := range sp.Children() {
		sum += c.Duration()
	}
	if sum > sp.Duration() {
		t.Fatalf("children (%v) exceed parent (%v)", sum, sp.Duration())
	}
}

func TestEstimateTimeNormalizedStageSpans(t *testing.T) {
	src := rng.New(9)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	est := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	tr := obs.NewTracer("test")
	est.SetTrace(tr.Root())
	if _, err := est.EstimateTimeNormalized(records); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	sp := root.Find("estimate_time_normalized")
	if sp == nil {
		t.Fatal("no estimate_time_normalized span")
	}
	for _, stage := range []string{"partition_slots", "build_biased_histograms",
		"sample_unbiased", "alpha_reference", "savitzky_golay_smooth", "average_curves"} {
		if sp.Find(stage) == nil {
			t.Fatalf("stage span %q missing", stage)
		}
	}
	// One alpha_reference span per reference slot actually used.
	refs := 0
	for _, c := range sp.Children() {
		if c.Name() == "alpha_reference" {
			refs++
			if _, ok := c.Attr("pooled_slots"); !ok {
				t.Fatal("alpha_reference span lacks pooled_slots attr")
			}
		}
	}
	if refs == 0 || refs > est.Options().ReferenceSlots {
		t.Fatalf("%d alpha_reference spans", refs)
	}
}

func TestEstimateCIBootstrapSpan(t *testing.T) {
	src := rng.New(11)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 2 })

	est := testEstimator(t, nil)
	tr := obs.NewTracer("test")
	est.SetTrace(tr.Root())
	opts := DefaultCIOptions()
	opts.Resamples = 4
	band, err := est.EstimateCI(records, opts)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	ci := root.Find("estimate_ci")
	if ci == nil {
		t.Fatal("no estimate_ci span")
	}
	boot := ci.Find("bootstrap")
	if boot == nil {
		t.Fatal("no bootstrap span")
	}
	if v, ok := boot.Attr("replicates"); !ok || v.(int) != band.Replicates {
		t.Fatalf("replicates attr = %v, want %d", v, band.Replicates)
	}
	// Plain replicates share (position, block) pair sweeps: at most one
	// per distinct pair, and at least one per position.
	blocks, _ := boot.Attr("blocks")
	if v, ok := boot.Attr("pair_sweeps"); !ok || v.(int) < blocks.(int) || v.(int) > blocks.(int)*blocks.(int) {
		t.Fatalf("pair_sweeps attr = %v with %v blocks", v, blocks)
	}
	if v, ok := boot.Attr("edge_draws"); !ok || v.(int) < 0 {
		t.Fatalf("edge_draws attr = %v", v)
	}
	// Replicates run untraced: the bootstrap span must not accumulate
	// per-replicate stage children.
	if len(boot.Children()) != 0 {
		t.Fatalf("bootstrap span has %d children", len(boot.Children()))
	}
	// The point estimate is traced under estimate_ci.
	if ci.Find("estimate") == nil {
		t.Fatal("point estimate span missing under estimate_ci")
	}
}

// TestUntracedEstimatorUnchanged pins that tracing is purely additive: the
// same seed with and without a trace produces the identical curve.
func TestUntracedEstimatorUnchanged(t *testing.T) {
	src := rng.New(13)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	plain := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	traced := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	traced.SetTrace(obs.NewTracer("t").Root())

	a, err := plain.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NLP {
		if a.NLP[i] != b.NLP[i] || a.Valid[i] != b.Valid[i] {
			t.Fatalf("bin %d diverged: %v vs %v", i, a.NLP[i], b.NLP[i])
		}
	}
}
