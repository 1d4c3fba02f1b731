package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"autosens/internal/collector/api"
)

// setupRuns is how many times each run starts sensd; setup_s is their
// median and the last start serves the measured load.
const setupRuns = 9

// runUntraced is the end-to-end run: the sensd binary over HTTP with
// tracing off.
func runUntraced(ctx context.Context, cfg config, info *runInfo) (result, error) {
	clock := newPhases(info)
	p, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	clock.mark("generate")
	walDir, coldDir := filepath.Join(cfg.work, "wal"), filepath.Join(cfg.work, "cold")
	if err := prepareHistory(p, walDir, coldDir); err != nil {
		return result{}, fmt.Errorf("prepare history: %w", err)
	}
	clock.mark("prepare")
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	var setups []float64
	var srv *proc
	defer func() { srv.stop() }()
	for i := 0; i < setupRuns; i++ {
		if srv, err = startSensd(ctx, cfg.sensd, cfg.workload, walDir, coldDir, hc); err != nil {
			return result{}, err
		}
		setups = append(setups, srv.setupDur.Seconds())
		if i < setupRuns-1 {
			srv.stop()
			hc.CloseIdleConnections()
		}
	}

	clock.mark("setup")
	d := newLoader(hc, srv.base, p)
	// Memory is read with the server at rest and its derived state
	// built: after the warm-up queries over history where there is
	// history (the state load builds later depends on when queries met
	// appends, so it differs run to run), else between the fixed-rate
	// and saturation phases. The least of three post-GC readings leaves
	// out the transient buffers of a compaction or watcher tick that
	// happened to be running.
	heap, heapRecs := math.Inf(1), 0
	var heapErr error
	readHeap := func() {
		for i := 0; i < 3 && heapErr == nil; i++ {
			if i > 0 {
				time.Sleep(300 * time.Millisecond)
			}
			var h float64
			if h, heapErr = heapAlloc(hc, srv.admin); heapErr == nil {
				heap = math.Min(heap, h)
			}
		}
		var st api.StatusResponse
		if st, heapErr = fetchStatus(hc, srv.base); heapErr == nil && st.Live != nil {
			heapRecs = st.Live.Records
		}
	}
	var warm []op
	if p.w.history > 0 {
		warm = d.warm()
		readHeap()
	}
	// Answers are checked once the fixed-rate phase stops, before the
	// saturation bursts grow the store.
	var cr checkResult
	var crErr error
	d.atRest = func(fixed loadResult) {
		clock.mark("load")
		if p.w.history == 0 {
			readHeap()
		}
		cr, crErr = checkAnswers(d, p, collectAcked(p, fixed))
		clock.mark("check")
		// A heap profile read forces a collection: the server enters
		// saturation with a fresh heap too.
		if _, err := heapAlloc(hc, srv.admin); err != nil && crErr == nil {
			crErr = err
		}
	}
	lr := d.run(ctx, cfg.seconds)
	lr.warm = warm
	clock.mark("saturation")
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	if heapErr != nil {
		return result{}, fmt.Errorf("read server memory: %w", heapErr)
	}
	a := collectAcked(p, lr)
	st, err := fetchStatus(hc, srv.base)
	if err != nil {
		return result{}, err
	}
	if crErr != nil {
		return result{}, crErr
	}
	srv.stop()

	res := result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", median(setups), "s")
	info.Notes["setup_s"] = fmt.Sprintf("median of %d starts", len(setups))
	e2e(&res, info, p, lr)
	put("heap_bytes_per_record", heap/float64(max(heapRecs, 1)), "B")
	info.Notes["heap_bytes_per_record"] = fmt.Sprintf("HeapAlloc %.0f B / %d hot records at rest", heap, heapRecs)
	tally(&res, info, lr, cr, checkHeld(st, a))
	validity(info, lr)
	return res, nil
}

// e2e adds the client-observed latency and throughput metrics.
func e2e(res *result, info *runInfo, p *plan, lr loadResult) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	var ingest []float64
	var qs [numKinds][]float64
	queries := 0
	for _, o := range append(append([]op(nil), lr.fixed...), lr.closed...) {
		if !o.ok {
			continue
		}
		if o.query == nil {
			ingest = append(ingest, ms(o.latency()))
			continue
		}
		queries++
		if p.w.probeRounds == 0 {
			qs[o.query.kind] = append(qs[o.query.kind], ms(o.latency()))
		}
	}
	for _, o := range lr.probe {
		if o.ok && o.query != nil {
			qs[o.query.kind] = append(qs[o.query.kind], ms(o.latency()))
		}
	}
	di := summarize(ingest)
	put("ingest_p50_ms", di.P50, "ms")
	put("ingest_tail_ms", di.Tail, "ms")
	info.Notes["ingest_tail_ms"] = fmt.Sprintf("%s of n=%d, timed from due", di.TailAt, di.N)
	for k := 0; k < numKinds; k++ {
		dq := summarize(qs[k])
		put("q_"+kindNames[k]+"_p50_ms", dq.P50, "ms")
		put("q_"+kindNames[k]+"_tail_ms", dq.Tail, "ms")
		info.Notes["q_"+kindNames[k]+"_tail_ms"] = fmt.Sprintf("%s of n=%d", dq.TailAt, dq.N)
	}
	put("query_per_s", float64(queries)/lr.fixedDur.Seconds(), "1/s")
	put("ingest_max_rec_per_s", slices.Max(lr.satRates), "rec/s")
	info.Notes["ingest_max_rec_per_s"] = fmt.Sprintf("best of %d bursts of %d batches on %d connections: %.0f", len(lr.satRates), len(p.saturation)/satBursts, conns, lr.satRates)
}

// tally counts attempts and failures: every request plus every answer
// check; a non-2xx, a transport error or a wrong curve is a failure.
func tally(res *result, info *runInfo, lr loadResult, cr checkResult, held []string) {
	for _, set := range [][]op{lr.warm, lr.fixed, lr.closed, lr.probe, lr.sat} {
		for _, o := range set {
			res.Attempted++
			if !o.ok {
				res.Failed++
				if len(info.Errors) < 10 {
					info.Errors = append(info.Errors, "request: "+o.err)
				}
			}
		}
	}
	res.Attempted += cr.checked + 1
	res.Failed += len(cr.mismatches)
	if len(held) > 0 {
		res.Failed++
	}
	info.Errors = append(append(info.Errors, cr.mismatches...), held...)
	if len(cr.mismatches) > 0 || len(held) > 0 {
		res.Correct = false
	}
	res.Metrics["ok_ratio"] = metric{Value: 1 - float64(res.Failed)/float64(res.Attempted), Unit: "ratio"}
	info.Notes["ok_ratio"] = fmt.Sprintf("1 - fail_ratio; %d of %d ops failed, %d curves checked", res.Failed, res.Attempted, cr.checked)
}

// Validity limits: beyond these the generator, not the server, set the
// numbers, and the run says nothing about sensd.
const (
	maxGenLateMS = 20.0
	maxBacklogMS = 250.0
)

// validity marks the run invalid when the generator overslept its
// schedule or the fixed-rate phase ended with a growing backlog.
func validity(info *runInfo, lr loadResult) {
	var late, lag []float64
	for _, o := range lr.fixed {
		late = append(late, ms(o.late))
	}
	d := summarize(late)
	info.Notes["gen.late_tail_ms"] = fmt.Sprintf("%.3f ms at %s of n=%d", d.Tail, d.TailAt, d.N)
	if d.Tail > maxGenLateMS {
		info.Valid = false
		info.Invalid = append(info.Invalid, fmt.Sprintf("generator ran late: %s %.1f ms > %.0f ms", d.TailAt, d.Tail, maxGenLateMS))
	}
	// Backlog: how far sends trailed their due times over the last tenth
	// of the fixed-rate phase (lr.fixed is in schedule order).
	for _, o := range lr.fixed[len(lr.fixed)-len(lr.fixed)/10:] {
		lag = append(lag, ms(o.start-o.due))
	}
	if m := median(lag); m > maxBacklogMS {
		info.Valid = false
		info.Invalid = append(info.Invalid, fmt.Sprintf("backlog at end of fixed-rate phase: sends trail due by %.0f ms", m))
	}
}

// phases notes how long each stage of a run took.
type phases struct {
	info *runInfo
	last time.Time
}

func newPhases(info *runInfo) *phases { return &phases{info: info, last: time.Now()} }

func (p *phases) mark(name string) {
	now := time.Now()
	p.info.Notes["phase "+name] = now.Sub(p.last).Round(time.Millisecond).String()
	p.last = now
}
