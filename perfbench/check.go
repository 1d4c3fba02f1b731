package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// acked gathers what the server acknowledged, in send order. Record
// times are unique, so the estimator's by-time order over these is the
// same as over the true ack order.
type ackedSet struct {
	hot  []telemetry.Record // hot tier: uncompacted history + acked appends
	all  []telemetry.Record // hot plus the cold history
	sent int                // appended records acked
	// satUsable counts the usable records of acked saturation batches,
	// whose records are not kept.
	satUsable int
	// clock is the data clock after the acked fixed-rate and probe
	// batches; windowed answers are checked there, before the
	// saturation batches moved it further.
	clock timeutil.Millis
}

func collectAcked(p *plan, lr loadResult) ackedSet {
	var a ackedSet
	a.hot = append(a.hot, p.history[p.w.coldHistory:]...)
	a.clock = p.historyEnd
	for _, o := range lr.fixed {
		if o.query == nil && o.ok {
			b := &p.appends[o.batch]
			a.hot = append(a.hot, b.recs...)
			a.sent += b.n
			a.clock = max(a.clock, b.clock)
		}
	}
	for _, o := range lr.probe {
		if o.query == nil && o.ok {
			b := &p.probe[o.batch]
			a.hot = append(a.hot, b.recs...)
			a.sent += b.n
			a.clock = max(a.clock, b.clock)
		}
	}
	for _, o := range lr.sat {
		if o.ok {
			a.sent += p.saturation[o.batch].n
			a.satUsable += p.saturation[o.batch].usable
		}
	}
	a.all = a.hot
	if p.w.coldHistory > 0 {
		a.all = append(append([]telemetry.Record(nil), p.history[:p.w.coldHistory]...), a.hot...)
	}
	return a
}

func usable(recs []telemetry.Record) int {
	n := 0
	for _, r := range recs {
		if !r.Failed && r.Validate() == nil {
			n++
		}
	}
	return n
}

// sliceFilter keeps the records a batch run over the slice loads, plus a
// window bound when win is non-zero.
func sliceFilter(recs []telemetry.Record, key live.SliceKey, win live.Window) []telemetry.Record {
	return telemetry.Filter(recs, func(r telemetry.Record) bool {
		if key.Action >= 0 && r.Action != key.Action {
			return false
		}
		if key.UserType >= 0 && r.UserType != key.UserType {
			return false
		}
		if key.Period >= 0 && timeutil.PeriodOf(r.Time, r.TZOffset) != key.Period {
			return false
		}
		return win.IsZero() || win.Contains(r.Time)
	})
}

// checkResult is the answer check's outcome.
type checkResult struct {
	checked    int
	mismatches []string
	// batchMS holds the batch estimator's time per kind (core.batch_*).
	batchMS [numKinds][]float64
}

// checkAnswers fetches every queried slice × kind once load has stopped
// and compares it byte for byte with the public batch estimator: plain,
// normalized and CI over the hot tier, windowed over hot + cold.
func checkAnswers(d *loader, p *plan, a ackedSet) (checkResult, error) {
	var cr checkResult
	est, err := core.NewEstimator(core.DefaultOptions())
	if err != nil {
		return cr, err
	}
	slices := querySlices
	if !p.w.closedQueries {
		slices = querySlices[:1]
	}
	at := a.clock
	if p.w.fixedAt {
		at = p.historyEnd
	}
	for _, s := range slices {
		key, err := live.ParseSliceKey(s)
		if err != nil {
			return cr, err
		}
		for kind := 0; kind < numKinds; kind++ {
			q := query{kind: kind, slice: s}
			var o op
			body := d.get(q, at, &o)
			cr.checked++
			label := fmt.Sprintf("%s %q", kindNames[kind], s)
			if !o.ok {
				cr.mismatches = append(cr.mismatches, label+": "+o.err)
				continue
			}
			var resp api.CurvesResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				cr.mismatches = append(cr.mismatches, label+": "+err.Error())
				continue
			}
			recs := a.hot
			var win live.Window
			if kind == qWindow {
				win = live.Window{From: timeutil.Millis(resp.WindowFromMS), To: timeutil.Millis(resp.WindowToMS)}
				// The lower bound may be clamped up to the oldest cold record.
				if want := timeutil.Millis(time.UnixMilli(int64(at)).Truncate(time.Second).UnixMilli()); win.To != want || win.From < want-timeutil.Millis(windowSpan.Milliseconds()) {
					cr.mismatches = append(cr.mismatches, fmt.Sprintf("%s: served window [%d,%d) want to=%d", label, win.From, win.To, want))
					continue
				}
				recs = a.all
			}
			in := sliceFilter(recs, key, win)
			t0 := time.Now()
			var curve *core.Curve
			var bounds []byte
			switch kind {
			case qNorm:
				curve, err = est.EstimateTimeNormalized(in)
			case qCI:
				var band *core.CurveCI
				if band, err = est.EstimateCI(in, core.DefaultCIOptions()); err == nil {
					curve = band.Curve
					bounds, err = band.MarshalBoundsJSON()
				}
			default:
				curve, err = est.Estimate(in)
			}
			cr.batchMS[kind] = append(cr.batchMS[kind], ms(time.Since(t0)))
			if err != nil {
				cr.mismatches = append(cr.mismatches, label+": batch estimator: "+err.Error())
				continue
			}
			want, err := curve.MarshalJSON()
			if err != nil {
				return cr, err
			}
			if !bytes.Equal(want, resp.Curve) {
				cr.mismatches = append(cr.mismatches, label+": curve differs from batch")
			} else if kind == qCI && !bytes.Equal(bounds, resp.CI) {
				cr.mismatches = append(cr.mismatches, label+": CI bounds differ from batch")
			}
		}
	}
	return cr, nil
}

// checkHeld compares the server's counts with what was acked: every
// acked record accepted, and every usable one held by the live store.
func checkHeld(st api.StatusResponse, a ackedSet) []string {
	var bad []string
	if st.RecordsAccepted != uint64(a.sent) {
		bad = append(bad, fmt.Sprintf("server accepted %d records, client saw %d acked", st.RecordsAccepted, a.sent))
	}
	if st.Live == nil {
		return append(bad, "status has no live section")
	}
	if want := usable(a.hot) + a.satUsable; st.Live.Records != want {
		bad = append(bad, fmt.Sprintf("live store holds %d records, want %d", st.Live.Records, want))
	}
	return bad
}
