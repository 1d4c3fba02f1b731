package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// StreamingEstimator computes NLP curves over telemetry streams too large
// to hold in memory. It keeps, per time slot, the exact biased histograms
// plus a fixed-size uniform reservoir of records; the unbiased distribution
// is then sampled from the reservoir at Finalize time.
//
// Memory is O(slots × (bins + reservoir)) regardless of stream length. The
// approximation relative to the batch estimator is confined to U: the
// nearest-sample lookup runs over the reservoir (a uniform subsample of the
// slot) instead of every record. With reservoirs of a few hundred records
// per hour slot the curves agree closely (see the equivalence test).
//
// Records may arrive in any order. The estimator is not safe for
// concurrent use.
type StreamingEstimator struct {
	est       *Estimator
	reservoir int
	src       *rng.Source
	slots     map[int]*streamSlot
	total     int
	minT      timeutil.Millis
	maxT      timeutil.Millis
}

// streamSlot is the per-slot sketch.
type streamSlot struct {
	count     int
	fine      *histogram.Histogram
	coarse    *histogram.Histogram
	reservoir []telemetry.Record
}

// NewStreaming wraps an Estimator for streaming use with the given
// per-slot reservoir size.
func NewStreaming(est *Estimator, reservoirSize int) (*StreamingEstimator, error) {
	if est == nil {
		return nil, errors.New("core: nil estimator")
	}
	if reservoirSize < 2 {
		return nil, errors.New("core: reservoir must hold at least 2 records")
	}
	return &StreamingEstimator{
		est:       est,
		reservoir: reservoirSize,
		src:       rng.New(est.opts.Seed ^ 0x5eed),
		slots:     make(map[int]*streamSlot),
	}, nil
}

// Add accumulates one record. Failed records are ignored, mirroring the
// batch estimators.
func (s *StreamingEstimator) Add(r telemetry.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if r.Failed {
		return nil
	}
	slot := int(r.Time / s.est.opts.SlotDuration)
	ss := s.slots[slot]
	if ss == nil {
		ss = &streamSlot{
			fine:   s.est.newHist(),
			coarse: histogram.MustNew(0, s.est.opts.MaxLatencyMS, s.est.opts.AlphaBinWidthMS),
		}
		s.slots[slot] = ss
	}
	if s.total == 0 || r.Time < s.minT {
		s.minT = r.Time
	}
	if s.total == 0 || r.Time > s.maxT {
		s.maxT = r.Time
	}
	s.total++
	ss.count++
	ss.fine.Add(r.LatencyMS)
	ss.coarse.Add(r.LatencyMS)
	// Reservoir sampling (algorithm R) keeps a uniform subsample.
	if len(ss.reservoir) < s.reservoir {
		ss.reservoir = append(ss.reservoir, r)
	} else if j := s.src.Intn(ss.count); j < s.reservoir {
		ss.reservoir[j] = r
	}
	return nil
}

// Count returns the number of records accumulated.
func (s *StreamingEstimator) Count() int { return s.total }

// Slots returns the number of distinct time slots seen.
func (s *StreamingEstimator) Slots() int { return len(s.slots) }

// Finalize computes the time-normalized NLP curve from the accumulated
// sketches. The StreamingEstimator remains usable afterwards (more records
// can be added and Finalize called again).
func (s *StreamingEstimator) Finalize() (*Curve, error) {
	sp := s.est.trace.StartChild("finalize_streaming")
	defer sp.End()
	slots, err := s.prepareSlots(s.est.opts.MinSlotActions)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("slots", len(slots))
	sp.SetAttr("records", s.total)
	return s.est.poolNormalized(sp, slots, s.total)
}

// FinalizePlain computes the pooled (no-α) NLP curve from the sketches,
// the streaming analogue of Estimate. All non-empty slots contribute;
// unbiased draws are still allotted per unit time, matching the batch
// estimator's uniform random-time sampling.
func (s *StreamingEstimator) FinalizePlain() (*Curve, error) {
	sp := s.est.trace.StartChild("finalize_streaming_plain")
	defer sp.End()
	slots, err := s.prepareSlots(1)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("slots", len(slots))
	sp.SetAttr("records", s.total)
	bPool := s.est.newHist()
	uPool := s.est.newHist()
	for _, sd := range slots {
		if err := bPool.AddHistogram(sd.fine); err != nil {
			return nil, err
		}
		if err := uPool.AddHistogram(sd.fineU); err != nil {
			return nil, err
		}
	}
	return s.est.finishCurve(sp, bPool, uPool, s.total, int(uPool.Total()))
}

// prepareSlots materializes slotData for every slot with at least
// minActions records, drawing the unbiased samples from the reservoirs.
func (s *StreamingEstimator) prepareSlots(minActions int) ([]*slotData, error) {
	if s.total == 0 {
		return nil, errors.New("core: no usable records")
	}
	keys := make([]int, 0, len(s.slots))
	for k, ss := range s.slots {
		if ss.count >= minActions {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("%w: no slot reaches %d actions", ErrInsufficientData, minActions)
	}
	sort.Ints(keys)

	windowLo, windowHi := s.minT, s.maxT+1
	out := make([]*slotData, 0, len(keys))
	var totalDur timeutil.Millis
	for _, k := range keys {
		lo := maxMillis(timeutil.Millis(k)*s.est.opts.SlotDuration, windowLo)
		hi := minMillis(timeutil.Millis(k+1)*s.est.opts.SlotDuration, windowHi)
		if lo >= hi {
			continue
		}
		totalDur += hi - lo
		out = append(out, &slotData{
			slot:  k,
			count: s.slots[k].count,
			lo:    lo,
			hi:    hi,
		})
	}
	if totalDur == 0 {
		return nil, errors.New("core: degenerate window")
	}
	totalDraws := math.Ceil(float64(s.total) * s.est.opts.UnbiasedPerSample)
	src := rng.New(s.est.opts.Seed)
	for _, sd := range out {
		ss := s.slots[sd.slot]
		sd.fine = ss.fine.Clone()
		sd.coarse = ss.coarse.Clone()
		sd.fineU = s.est.newHist()
		sd.coarseU = histogram.MustNew(0, s.est.opts.MaxLatencyMS, s.est.opts.AlphaBinWidthMS)

		sorted := make([]telemetry.Record, len(ss.reservoir))
		copy(sorted, ss.reservoir)
		telemetry.SortByTime(sorted)
		sampler := newUnbiasedSampler(sorted)
		quota := int(math.Ceil(totalDraws * float64(sd.hi-sd.lo) / float64(totalDur)))
		sampler.fillSweep(sd.lo, sd.hi, quota, src, nil, sd.fineU, sd.coarseU)
	}
	return out, nil
}
