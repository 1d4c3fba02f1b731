package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/timeutil"
)

// conns is the load process's goroutine and connection budget.
var conns = runtime.NumCPU()

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// op is one request the generator made.
type op struct {
	query *query // nil for a beacon batch
	batch int    // index into the phase's batches (beacons only)
	// due is when an open-loop request was scheduled (closed-loop: its
	// start); latency counts from due. late is how long the generator
	// itself overslept past due once its connection was free.
	due, start, done time.Duration
	late             time.Duration
	ok               bool
	id               uint64
	err              string
}

func (o op) latency() time.Duration { return o.done - o.due }

// loader sends one plan to one server.
type loader struct {
	hc    *http.Client
	base  string
	p     *plan
	epoch time.Time
	// queryID numbers curve requests above every batch id.
	queryID atomic.Uint64
	// atRest, when set, runs between the fixed-rate and saturation
	// phases once the server has settled, given what the fixed-rate phase
	// observed.
	atRest func(fixed loadResult)
}

func newLoader(hc *http.Client, base string, p *plan) *loader {
	d := &loader{hc: hc, base: base, p: p}
	d.queryID.Store(1 << 40)
	return d
}

func (d *loader) since() time.Duration { return time.Since(d.epoch) }

// post sends one beacon batch and reports whether all its records were
// acked.
func (d *loader) post(b *batch, o *op) {
	o.id = b.id
	req, err := http.NewRequest(http.MethodPost, d.base+api.PathBeacons, bytes.NewReader(b.body))
	if err != nil {
		o.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", collector.ContentTypeTBIN)
	req.Header.Set(reqHeader, strconv.FormatUint(b.id, 10))
	o.start = d.since()
	resp, err := d.hc.Do(req)
	if err != nil {
		o.done = d.since()
		o.err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = d.since()
	if err != nil {
		o.err = err.Error()
		return
	}
	var br api.BatchResponse
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &br) != nil || br.Accepted != b.n {
		o.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	o.ok = true
}

// get sends one curve query and returns the body of a 200.
func (d *loader) get(q query, at timeutil.Millis, o *op) []byte {
	o.query = &q
	o.id = d.queryID.Add(1)
	req, err := http.NewRequest(http.MethodGet, d.base+q.path(at), nil)
	if err != nil {
		o.err = err.Error()
		return nil
	}
	req.Header.Set(reqHeader, strconv.FormatUint(o.id, 10))
	o.start = d.since()
	resp, err := d.hc.Do(req)
	if err != nil {
		o.done = d.since()
		o.err = err.Error()
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = d.since()
	if err != nil {
		o.err = err.Error()
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return nil
	}
	o.ok = true
	return body
}

// event is one open-loop send: a batch or a trickle query.
type event struct {
	due   time.Duration
	batch int // -1 for a query
	q     query
}

// schedule lays out the fixed-rate phase: batch i is due at i/rate and
// trickle queries start after one second.
func (d *loader) schedule() []event {
	w := d.p.w
	var evs []event
	for i := range d.p.appends {
		evs = append(evs, event{due: time.Duration(float64(i) / w.appendRate * float64(time.Second)), batch: i})
	}
	if w.trickle > 0 {
		end := time.Duration(float64(len(d.p.appends)) / w.appendRate * float64(time.Second))
		for t := time.Second; t < end; t += w.trickle {
			evs = append(evs, event{due: t, batch: -1, q: query{kind: qPlain}})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// dueBatches is how many fixed-phase batches are due at t.
func (d *loader) dueBatches(t time.Duration) int {
	n := int(t.Seconds()*d.p.w.appendRate) + 1
	return min(n, len(d.p.appends))
}

// loadResult is everything one run's load phases observed.
type loadResult struct {
	warm     []op // warm-up queries before timing
	fixed    []op // open-loop sends, in schedule order
	probe    []op // at-rest probe rounds: a batch, then every query kind
	closed   []op // closed-loop queries
	sat      []op // saturation batches
	fixedDur time.Duration
	satRates []float64 // acked records/s of each saturation burst
}

// warm sends each query of the workload's cycle once, before timing,
// so lazily built derived state exists as it would in a running
// service.
func (d *loader) warm() []op {
	var ops []op
	for _, q := range d.cycle() {
		var o op
		d.get(q, d.p.windowAt(-1), &o)
		ops = append(ops, o)
	}
	return ops
}

// cycle is the closed-loop client's query order: every kind on each
// slice in turn.
func (d *loader) cycle() []query {
	var qs []query
	for _, s := range querySlices {
		for k := 0; k < numKinds; k++ {
			qs = append(qs, query{kind: k, slice: s})
		}
	}
	return qs
}

// run drives the fixed-rate phase (open-loop sends plus, where the
// workload has one, the closed-loop query client), then the closed-loop
// saturation phase. It never retries.
func (d *loader) run(ctx context.Context, seconds float64) loadResult {
	var res loadResult
	evs := d.schedule()
	res.fixed = make([]op, len(evs))
	senders := conns
	if d.p.w.closedQueries {
		senders = conns - 1
	}
	d.epoch = time.Now()
	var next atomic.Int64
	stopQueries := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(evs) || ctx.Err() != nil {
					return
				}
				ev, o := evs[i], &res.fixed[i]
				free := d.since()
				if wait := ev.due - free; wait > 0 {
					time.Sleep(wait)
				}
				o.due, o.batch = ev.due, ev.batch
				if ev.batch >= 0 {
					d.post(&d.p.appends[ev.batch], o)
				} else {
					at := d.p.windowAt(d.dueBatches(ev.due) - 1)
					d.get(ev.q, at, o)
				}
				o.late = o.start - max(ev.due, free)
			}
		}()
	}
	var qwg sync.WaitGroup
	if d.p.w.closedQueries {
		cyc := d.cycle()
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for j := 0; ; j++ {
				select {
				case <-stopQueries:
					return
				default:
				}
				if ctx.Err() != nil {
					return
				}
				q := cyc[j%len(cyc)]
				var o op
				o.due = d.since()
				d.get(q, d.p.windowAt(d.dueBatches(o.due)-1), &o)
				res.closed = append(res.closed, o)
			}
		}()
	}
	wg.Wait()
	close(stopQueries)
	qwg.Wait()
	res.fixedDur = d.since()

	d.settle(restPause)
	for r := range d.p.probe {
		res.probe = append(res.probe, d.probeRound(r)...)
	}
	if d.atRest != nil {
		d.atRest(res)
	}

	// Saturation: timed bursts in which every connection sends
	// closed loop, from a settled server and a freshly collected load
	// process (the answer check allocates heavily), so no collection of
	// the generator's falls due mid-phase. atRest collects the server's
	// heap where it can.
	d.settle(restPause)
	runtime.GC()
	res.sat = make([]op, len(d.p.saturation))
	per := len(d.p.saturation) / satBursts
	satStart := d.since()
	for b := 0; b < satBursts && ctx.Err() == nil; b++ {
		if wait := satStart + time.Duration(b)*burstEvery - d.since(); wait > 0 {
			time.Sleep(wait)
		}
		res.satRates = append(res.satRates, d.burst(ctx, res.sat[b*per:(b+1)*per], b*per))
	}
	return res
}

// probeRound appends probe batch r and then sends each query kind once
// on the all slice, closed loop.
func (d *loader) probeRound(r int) []op {
	b := &d.p.probe[r]
	ops := make([]op, 1, 1+numKinds)
	ops[0].batch, ops[0].due = r, d.since()
	d.post(b, &ops[0])
	for k := 0; k < numKinds; k++ {
		var o op
		o.due = d.since()
		d.get(query{kind: k}, b.clock, &o)
		ops = append(ops, o)
	}
	return ops
}

// satBursts splits the saturation pool into bursts of about 20 ms that
// start burstEvery apart, so the phase spans 10 s: two of ingest's 5 s
// compaction periods and five of dashboard's 2 s watcher ticks. The
// spacing does not divide 2 s: five bursts advance 80 ms through the tick
// cycle, so the 25 bursts sample all of it rather than the same five
// points. The reported capacity is the best burst: other processes and
// the server's own background work can only slow a burst, and the median
// burst moved by a sixth to a quarter between seeds with how many bursts
// a compaction, a watcher tick or the shared host happened to slow; the
// best of 25 moved by under a tenth.
const (
	satBursts  = 25
	burstEvery = 416 * time.Millisecond
	restPause  = 250 * time.Millisecond
)

// burst sends ops' batches (saturation indices from base) back to back on
// every connection and returns the acked records per second.
func (d *loader) burst(ctx context.Context, ops []op, base int) float64 {
	start := d.since()
	var next, last, acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				o.batch = base + i
				o.due = d.since()
				d.post(&d.p.saturation[base+i], o)
				if o.ok {
					acked.Add(int64(d.p.saturation[base+i].n))
				}
				for {
					l := last.Load()
					if int64(o.done) <= l || last.CompareAndSwap(l, int64(o.done)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return float64(acked.Load()) / math.Max((time.Duration(last.Load())-start).Seconds(), 1e-9)
}

// settle waits until the server's ingest queue is empty, then pauses
// for background work to finish.
func (d *loader) settle(pause time.Duration) {
	for i := 0; i < 100; i++ {
		st, err := fetchStatus(d.hc, d.base)
		if err != nil || st.QueueLength == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(pause)
}
