package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/watch"
)

// taps wraps each layer's public interface with span recorders and the
// counters spans alone do not give. Sink-side spans find their request
// by the batch's first record: record times are unique, and the plan
// maps each batch's first time to its request id.
type taps struct {
	rec      *recorder
	firstRec map[timeutil.Millis]uint64

	queries, cacheHits  atomic.Int64
	scanCalls, scanRows atomic.Int64
	appended, appendNS  atomic.Int64
	recomputed, skipped atomic.Int64

	cmu         sync.Mutex
	compactRecs int64
	compactBusy time.Duration // summed over compactions that folded records

	// tickSpan is the open watcher tick (-1 when none); window holds the
	// open windowed query spans, the parents of cold scans.
	tickSpan atomic.Int64
	wmu      sync.Mutex
	window   map[int]uint64
}

func newTaps(p *plan) *taps {
	t := &taps{rec: newRecorder(), firstRec: make(map[timeutil.Millis]uint64), window: make(map[int]uint64)}
	t.tickSpan.Store(-1)
	for _, set := range [][]batch{p.appends, p.probe, p.saturation} {
		for i := range set {
			t.firstRec[set[i].first] = set[i].id
		}
	}
	return t
}

func (t *taps) reqOf(recs []telemetry.Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return t.firstRec[recs[0].Time]
}

func reqID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // absent → 0, no request
	return id
}

// handler wraps the collector's handler: POST /v1/beacons gets a root
// span per request.
func (t *taps) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathBeacons {
			inner.ServeHTTP(w, r)
			return
		}
		id := t.rec.beginRoot("collector.beacons", reqID(r), "")
		inner.ServeHTTP(w, r)
		t.rec.end(id)
	})
}

// curves serves /v1/curves with a root span per request and a querier
// tap bound to that request, so querier spans know their parent.
func (t *taps) curves(q live.WindowQuerier, opts live.CurvesHandlerOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := reqID(r)
		id := t.rec.beginRoot("live.curves", req, "")
		live.NewCurvesHandlerWith(querierTap{inner: q, t: t, req: req}, opts).ServeHTTP(w, r)
		t.rec.end(id)
	})
}

type sinkTap struct {
	inner collector.Sink
	t     *taps
}

func (s sinkTap) WriteBatch(recs []telemetry.Record) (int, error) {
	id := s.t.rec.begin("wal.write", s.t.reqOf(recs), -1, "")
	n, err := s.inner.WriteBatch(recs)
	s.t.rec.end(id)
	return n, err
}

func (s sinkTap) Sync() error  { return s.inner.Sync() }
func (s sinkTap) Close() error { return s.inner.Close() }

type liveTap struct {
	inner *live.Engine
	t     *taps
}

// LiveStats keeps the engine's section in /v1/status, which the
// collector reads from its live sink.
func (l liveTap) LiveStats() api.LiveStats { return l.inner.LiveStats() }

func (l liveTap) Append(recs []telemetry.Record) {
	id := l.t.rec.begin("live.append", l.t.reqOf(recs), -1, "")
	t0 := time.Now()
	l.inner.Append(recs)
	l.t.appendNS.Add(int64(time.Since(t0)))
	l.t.appended.Add(int64(len(recs)))
	l.t.rec.end(id)
}

type querierTap struct {
	inner live.WindowQuerier
	t     *taps
	req   uint64
}

func kindAttr(mode live.Mode, ci, window bool) string {
	switch {
	case window:
		return "window"
	case ci:
		return "ci"
	case mode == live.ModeNormalized:
		return "norm"
	}
	return "plain"
}

func (q querierTap) done(id int, res *live.Result) {
	q.t.rec.end(id)
	q.t.queries.Add(1)
	if res != nil && res.Cached {
		q.t.cacheHits.Add(1)
	}
}

func (q querierTap) Query(key live.SliceKey, mode live.Mode, ci bool) (*live.Result, error) {
	id := q.t.rec.begin("live.query", q.req, -1, kindAttr(mode, ci, false))
	res, err := q.inner.Query(key, mode, ci)
	q.done(id, res)
	return res, err
}

func (q querierTap) QueryWindow(key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	id := q.t.rec.begin("live.query", q.req, -1, kindAttr(mode, ci, true))
	q.t.wmu.Lock()
	q.t.window[id] = q.req
	q.t.wmu.Unlock()
	res, err := q.inner.QueryWindow(key, mode, ci, win)
	q.t.wmu.Lock()
	delete(q.t.window, id)
	q.t.wmu.Unlock()
	q.done(id, res)
	return res, err
}

type coldTap struct {
	inner live.ColdTier
	t     *taps
}

func (c coldTap) ScanWindow(key live.SliceKey, win live.Window) ([]timeutil.Millis, []float64, []uint64, error) {
	// The parent is the windowed query in flight; with several in flight
	// the scan cannot be attributed and stays a root.
	parent, req := -1, uint64(0)
	c.t.wmu.Lock()
	if len(c.t.window) == 1 {
		for id, r := range c.t.window {
			parent, req = id, r
		}
	}
	c.t.wmu.Unlock()
	id := c.t.rec.begin("store.scan", req, parent, "")
	times, lats, seqs, err := c.inner.ScanWindow(key, win)
	c.t.rec.end(id)
	c.t.scanCalls.Add(1)
	c.t.scanRows.Add(int64(len(times)))
	return times, lats, seqs, err
}

func (c coldTap) OldestRetained() (timeutil.Millis, bool) { return c.inner.OldestRetained() }
func (c coldTap) Generation() uint64                      { return c.inner.Generation() }

// compact runs one store.CompactOnce under a span.
func (t *taps) compact(once func() (int, error)) (int, error) {
	id := t.rec.begin("store.compact", 0, -1, "")
	t0 := time.Now()
	n, err := once()
	busy := time.Since(t0)
	t.rec.end(id)
	if n > 0 {
		t.cmu.Lock()
		t.compactRecs += int64(n)
		t.compactBusy += busy
		t.cmu.Unlock()
		t.rec.setAttr(id, "folded")
	}
	return n, err
}

// tick runs one watch.Tick under a span.
func (t *taps) tick(tick func() watch.TickResult) {
	id := t.rec.begin("watch.tick", 0, -1, "")
	t.tickSpan.Store(int64(id))
	r := tick()
	t.tickSpan.Store(-1)
	t.rec.end(id)
	t.recomputed.Add(int64(r.Recomputed))
	t.skipped.Add(int64(r.Skipped))
}

type watchTap struct {
	inner watch.Store
	t     *taps
}

func (s watchTap) Options() core.Options                 { return s.inner.Options() }
func (s watchTap) SliceVersion(key live.SliceKey) uint64 { return s.inner.SliceVersion(key) }
func (s watchTap) SnapshotSlice(key live.SliceKey) (*live.SliceSnapshot, error) {
	id := s.t.rec.begin("watch.snapshot", 0, int(s.t.tickSpan.Load()), "")
	defer s.t.rec.end(id)
	return s.inner.SnapshotSlice(key)
}

func (s watchTap) SnapshotSliceWindow(key live.SliceKey, win live.Window) (*live.SliceSnapshot, error) {
	id := s.t.rec.begin("watch.snapshot", 0, int(s.t.tickSpan.Load()), "")
	defer s.t.rec.end(id)
	return s.inner.SnapshotSliceWindow(key, win)
}
