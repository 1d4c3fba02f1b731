package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/obs"
	"autosens/internal/store"
	"autosens/internal/telemetry"
	"autosens/internal/wal"
	"autosens/internal/watch"
)

// inproc is sensd's component graph wired in this process from the same
// public constructors and settings (see sensdFlags), with every layer
// behind a tap when t is non-nil.
type inproc struct {
	base   string
	reg    *obs.Registry
	engine *live.Engine
	cold   *store.Store
	srv    *collector.Server
	hs     *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startInProcess(w workload, walDir, coldDir string, t *taps) (*inproc, error) {
	ip := &inproc{reg: obs.NewRegistry()}
	policy, syncEvery, err := wal.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		return nil, err
	}
	lg, _, err := wal.Open(wal.Options{
		Dir: walDir, Format: telemetry.TBIN, SegmentMaxBytes: w.segBytes,
		Sync: policy, SyncEvery: syncEvery, Registry: ip.reg,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*inproc, error) {
		lg.Close()
		return nil, err
	}
	if ip.engine, err = live.New(live.Config{Shards: live.DefaultShards, Registry: ip.reg}); err != nil {
		return fail(err)
	}
	ip.cold, err = store.Open(store.Config{Dir: coldDir, WALDir: walDir, Active: lg.ActiveSegment,
		CacheBytes: 256 << 20, Registry: ip.reg})
	if err != nil {
		return fail(err)
	}
	ip.engine.SetBaseSeq(ip.cold.Cutover())
	if _, err := ip.engine.Warm(walDir); err != nil {
		return fail(err)
	}

	var (
		sink     collector.Sink     = lg
		liveSink collector.LiveSink = ip.engine
		querier  live.WindowQuerier = ip.engine
		coldTier live.ColdTier      = ip.cold
		wstore   watch.Store        = ip.engine
		compact                     = ip.cold.CompactOnce
	)
	if t != nil {
		sink, liveSink = sinkTap{lg, t}, liveTap{ip.engine, t}
		coldTier, wstore = coldTap{ip.cold, t}, watchTap{ip.engine, t}
		compact = func() (int, error) { return t.compact(ip.cold.CompactOnce) }
	}
	ip.engine.AttachCold(coldTier)
	opts := live.CurvesHandlerOptions{OldestRetained: ip.cold.OldestRetained}
	log, err := obs.NewLogger(os.Stderr, "warn") // sensdFlags' -log-level
	if err != nil {
		return fail(err)
	}
	cfg := collector.ServerConfig{
		Sink: sink, SinkName: "wal", Registry: ip.reg, Logger: log,
		Live:            liveSink,
		CurvesHandler:   live.NewCurvesHandlerWith(querier, opts),
		PartialsHandler: ip.engine.PartialsHandler(),
		BlocksHandler:   ip.cold.BlocksHandler(),
		StorageStats: func() api.StorageStats {
			st := ip.cold.Stats()
			st.HotBytes = ip.engine.StoreBytes()
			return st
		},
	}
	if t != nil {
		cfg.CurvesHandler = t.curves(querier, opts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ip.cancel = cancel
	var watcher *watch.Watcher
	if w.watch {
		watcher, err = watch.New(watch.Config{Engine: wstore, Interval: watchEvery, Registry: ip.reg})
		if err != nil {
			cancel()
			return fail(err)
		}
		cfg.AlertsHandler, cfg.ReportHandler, cfg.WatchStats = watcher.AlertsHandler(), watcher.ReportHandler(), watcher.Stats
	}
	if ip.srv, err = collector.NewServer(cfg); err != nil {
		cancel()
		return fail(err)
	}
	core.EnableMetrics(ip.srv.Registry())
	telemetry.EnableMetrics(ip.srv.Registry())

	// The background loops sensd runs (CompactLoop, Watcher.Run), driven
	// here so each CompactOnce and Tick is one span.
	every := func(d time.Duration, f func()) {
		ip.wg.Add(1)
		go func() {
			defer ip.wg.Done()
			tk := time.NewTicker(d)
			defer tk.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tk.C:
					f()
				}
			}
		}()
	}
	every(w.compactEvery, func() { _, _ = compact() }) // a failed fold retries next tick, as in CompactLoop
	if watcher != nil {
		tick := func() { watcher.Tick() }
		if t != nil {
			tick = func() { t.tick(watcher.Tick) }
		}
		every(watchEvery, tick)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ip.stop()
		return nil, err
	}
	h := ip.srv.Handler()
	if t != nil {
		h = t.handler(h)
	}
	ip.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	ip.base = "http://" + ln.Addr().String()
	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		if err := ip.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: in-process server:", err)
		}
	}()
	return ip, nil
}

// stop shuts the listener, the background loops and the collector (which
// closes the WAL), and waits for every goroutine it started.
func (ip *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ip.hs != nil {
		_ = ip.hs.Shutdown(ctx) // a timeout leaves nothing to release here
	}
	ip.cancel()
	ip.wg.Wait()
	_ = ip.srv.Shutdown(ctx) // closes the WAL; its error cannot change the result
}

// pass is one in-process run's observations.
type pass struct {
	lr    loadResult
	st    api.StatusResponse
	a     ackedSet
	reg   []obs.MetricSnapshot
	cr    checkResult
	store struct{ hotBytes, hotRecords, coldBytes, coldRecords int }
}

func inprocPass(ctx context.Context, cfg config, p *plan, t *taps, name string) (*pass, error) {
	dir := filepath.Join(cfg.work, name)
	walDir, coldDir := filepath.Join(dir, "wal"), filepath.Join(dir, "cold")
	if err := prepareHistory(p, walDir, coldDir); err != nil {
		return nil, err
	}
	ip, err := startInProcess(cfg.workload, walDir, coldDir, t)
	if err != nil {
		return nil, err
	}
	defer ip.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	d := newLoader(hc, ip.base, p)
	var warm []op
	if p.w.history > 0 {
		warm = d.warm()
	}
	var crErr error
	ps := &pass{}
	if t != nil {
		d.atRest = func(fixed loadResult) { ps.cr, crErr = checkAnswers(d, p, collectAcked(p, fixed)) }
	}
	ps.lr = d.run(ctx, cfg.seconds)
	ps.lr.warm = warm
	if crErr != nil {
		return nil, crErr
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	ps.a = collectAcked(p, ps.lr)
	if ps.st, err = fetchStatus(hc, ip.base); err != nil {
		return nil, err
	}
	ps.reg = ip.reg.Snapshot()
	ps.store.hotBytes, ps.store.hotRecords = ip.engine.StoreBytes(), ip.engine.Records()
	cs := ip.cold.Stats()
	ps.store.coldBytes, ps.store.coldRecords = int(cs.ColdBytes), cs.ColdRecords
	return ps, nil
}

// runTraced runs the workload in process twice, untraced then traced,
// and reports the per-layer metrics from the traced pass.
func runTraced(ctx context.Context, cfg config, info *runInfo) (result, error) {
	p, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	plain, err := inprocPass(ctx, cfg, p, nil, "untraced")
	if err != nil {
		return result{}, err
	}
	t := newTaps(p)
	tr, err := inprocPass(ctx, cfg, p, t, "traced")
	if err != nil {
		return result{}, err
	}
	spans := t.rec.snapshot()
	if err := writeSpans(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload.name, cfg.seed)), spans); err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	layerMetrics(&res, info, p, t, spans, tr)
	res.Metrics["trace.overhead_ratio"] = metric{overhead(info, plain.lr, tr.lr), "ratio"}
	trOnly := result{Correct: true, Metrics: map[string]metric{}}
	tally(&trOnly, info, tr.lr, tr.cr, checkHeld(tr.st, tr.a))
	res.Attempted, res.Failed, res.Correct = trOnly.Attempted, trOnly.Failed, trOnly.Correct
	validity(info, tr.lr)
	return res, nil
}

// overhead is the geometric mean, over request classes, of the traced
// pass's client-observed median latency over the untraced pass's.
func overhead(info *runInfo, plain, traced loadResult) float64 {
	classes := func(lr loadResult) map[string][]float64 {
		m := map[string][]float64{}
		for _, o := range append(append(append([]op(nil), lr.fixed...), lr.closed...), lr.probe...) {
			if !o.ok {
				continue
			}
			c := "beacons"
			if o.query != nil {
				c = kindNames[o.query.kind]
			}
			m[c] = append(m[c], ms(o.latency()))
		}
		return m
	}
	a, b := classes(plain), classes(traced)
	sum, n := 0.0, 0
	for c, v := range a {
		if w := b[c]; len(w) > 0 && median(v) > 0 {
			sum += math.Log(median(w) / median(v))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	info.Notes["trace.overhead_ratio"] = fmt.Sprintf("geometric mean of p50 ratios over %d request classes", n)
	return math.Exp(sum / float64(n))
}

func snap(reg []obs.MetricSnapshot, name string) obs.MetricSnapshot {
	for _, m := range reg {
		if m.Name == name {
			return m
		}
	}
	return obs.MetricSnapshot{}
}

// histQuantile is the upper bound of the bucket holding quantile q.
func histQuantile(m obs.MetricSnapshot, q float64) float64 {
	if m.Count == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(m.Count)))
	prev := 0.0
	for _, b := range m.Buckets {
		if b.CumulativeCount >= need {
			if math.IsInf(b.UpperBound, 1) {
				return prev
			}
			return b.UpperBound
		}
		prev = b.UpperBound
	}
	return prev
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer numbers from the traced pass.
func layerMetrics(res *result, info *runInfo, p *plan, t *taps, spans []span, ps *pass) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	dist2 := func(prefix string, samples []float64, unit string, scale float64) {
		for i := range samples {
			samples[i] *= scale
		}
		d := summarize(samples)
		put(prefix+"_p50_"+unit, d.P50, unit)
		put(prefix+"_tail_"+unit, d.Tail, unit)
		info.Notes[prefix+"_tail_"+unit] = fmt.Sprintf("%s of n=%d", d.TailAt, d.N)
	}
	kids := children(spans)
	self := func(name string) []float64 {
		var out []float64
		for i, s := range spans {
			if s.Name == name && s.End >= 0 {
				out = append(out, ms(selfTime(spans, kids, i)))
			}
		}
		return out
	}
	reg := ps.reg
	val := func(name string) float64 { return snap(reg, name).Value }

	// collector
	dist2("collector.beacons", spanMS(spans, "collector.beacons", "*"), "ms", 1)
	put("collector.self_p50_ms", summarize(self("collector.beacons")).P50, "ms")
	qw := snap(reg, "autosens_collector_queue_wait_seconds")
	tailName, tq := tailPick(int(qw.Count))
	put("collector.queue_wait_p50_ms", 1000*histQuantile(qw, 0.5), "ms")
	put("collector.queue_wait_tail_ms", 1000*histQuantile(qw, tq), "ms")
	info.Notes["collector.queue_wait_tail_ms"] = fmt.Sprintf("%s bucket bound of n=%d", tailName, qw.Count)
	shed := val("autosens_collector_batches_shed_total")
	put("collector.shed_ratio", ratio(shed, shed+val("autosens_collector_batches_total")), "ratio")

	// telemetry: the acked bodies replayed through the TBIN reader.
	var bodies [][]byte
	for _, o := range ps.lr.fixed {
		if o.query == nil && o.ok {
			bodies = append(bodies, p.appends[o.batch].body)
		}
	}
	for _, o := range ps.lr.probe {
		if o.query == nil && o.ok {
			bodies = append(bodies, p.probe[o.batch].body)
		}
	}
	for _, o := range ps.lr.sat {
		if o.ok {
			bodies = append(bodies, p.saturation[o.batch].body)
		}
	}
	decoded := 0
	t0 := time.Now()
	for _, b := range bodies {
		rd := telemetry.NewReader(bytes.NewReader(b), telemetry.TBIN)
		recs, err := rd.ReadAll()
		rd.Close()
		if err == nil {
			decoded += len(recs)
		}
	}
	put("telemetry.decode_us_per_batch", ratio(float64(time.Since(t0).Microseconds()), float64(len(bodies))), "us")
	put("telemetry.records_decoded", float64(decoded), "count")

	// wal
	dist2("wal.write", spanMS(spans, "wal.write", "*"), "ms", 1)
	put("wal.bytes_per_record", ratio(val("autosens_wal_bytes_total"), val("autosens_wal_records_total")), "B")
	put("wal.fsyncs", val("autosens_wal_fsyncs_total"), "count")

	// live, append side
	dist2("live.append", spanMS(spans, "live.append", "*"), "us", 1000)
	put("live.append_ns_per_record", ratio(float64(t.appendNS.Load()), float64(t.appended.Load())), "ns")

	// live, query side
	for k := 0; k < numKinds; k++ {
		dist2("live.query_"+kindNames[k], spanMS(spans, "live.query", kindNames[k]), "ms", 1)
	}
	put("live.curves_self_p50_ms", summarize(self("live.curves")).P50, "ms")
	put("live.cache_hit_ratio", ratio(float64(t.cacheHits.Load()), float64(t.queries.Load())), "ratio")
	put("live.delta_records_per_recompute", ratio(val("autosens_live_delta_records"), val("autosens_live_recompute_dirty_combos")), "count")
	put("live.store_bytes_per_record", ratio(float64(ps.store.hotBytes), float64(ps.store.hotRecords)), "B")

	// core: the batch estimator over the verified slices, after load.
	for k, name := range []string{"plain", "norm", "ci"} {
		put("core.batch_"+name+"_ms", median(ps.cr.batchMS[k]), "ms")
	}
	put("core.estimates", val("autosens_core_estimates_total"), "count")
	put("core.bootstrap_replicates", val("autosens_core_bootstrap_replicates_total"), "count")

	// store
	dist2("store.scan", spanMS(spans, "store.scan", "*"), "ms", 1)
	put("store.scan_rows_per_call", ratio(float64(t.scanRows.Load()), float64(t.scanCalls.Load())), "count")
	put("store.pruned_ratio", ratio(val("autosens_store_pruned_blocks"), val("autosens_store_scanned_blocks")), "ratio")
	hits := val("autosens_store_cache_hits")
	put("store.cache_hit_ratio", ratio(hits, hits+val("autosens_store_cache_misses")), "ratio")
	put("store.compact_p50_ms", median(spanMS(spans, "store.compact", "folded")), "ms")
	t.cmu.Lock()
	walBytes := ratio(val("autosens_wal_bytes_total"), val("autosens_wal_records_total"))
	put("store.compact_mb_per_s", ratio(float64(t.compactRecs)*walBytes/1e6, t.compactBusy.Seconds()), "MB/s")
	t.cmu.Unlock()
	put("store.bytes_per_record", ratio(float64(ps.store.coldBytes), float64(ps.store.coldRecords)), "B")

	// watch
	dist2("watch.tick", spanMS(spans, "watch.tick", "*"), "ms", 1)
	put("watch.snapshot_p50_ms", median(spanMS(spans, "watch.snapshot", "*")), "ms")
	rc := float64(t.recomputed.Load())
	put("watch.recompute_ratio", ratio(rc, rc+float64(t.skipped.Load())), "ratio")

	// cross-cutting
	var late []float64
	for _, o := range ps.lr.fixed {
		late = append(late, ms(o.late))
	}
	put("gen.late_tail_ms", summarize(late).Tail, "ms")
	root := map[uint64]span{}
	for _, s := range spans {
		if (s.Name == "collector.beacons" || s.Name == "live.curves") && s.Req != 0 && s.End >= 0 {
			root[s.Req] = s
		}
	}
	var gapB, gapC []float64
	for _, o := range append(append(append(append([]op(nil), ps.lr.fixed...), ps.lr.closed...), ps.lr.probe...), ps.lr.sat...) {
		s, ok := root[o.id]
		if !ok || !o.ok {
			continue
		}
		gap := ms(o.done-o.start) - ms(s.dur())
		if o.query == nil {
			gapB = append(gapB, gap)
		} else {
			gapC = append(gapC, gap)
		}
	}
	put("reconcile.beacons_gap_p50_ms", median(gapB), "ms")
	put("reconcile.curves_gap_p50_ms", median(gapC), "ms")
}
