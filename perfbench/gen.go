package main

import (
	"bytes"
	"fmt"
	"math"
	"net/url"
	"time"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// workload is one traffic mix. Every knob is fixed here; the seed only
// picks which records are drawn.
type workload struct {
	name string

	// history records exist before sensd starts; the first coldHistory
	// of them are compacted into the cold tier beforehand.
	history, coldHistory int
	// gridMS is the data-time spacing of consecutive generated records.
	gridMS int64
	// appendRate is the open-loop beacon batch rate (batches/s) and
	// appendBatch the records in each of those batches; saturation
	// batches always hold batchRecords.
	appendRate  float64
	appendBatch int
	// late places appends inside existing history instead of after it.
	late bool
	// trickle interleaves one plain curve query on the all slice every
	// trickle into the open-loop schedule.
	trickle time.Duration
	// probeRounds, when positive, measures the query kinds at rest after
	// the fixed-rate phase instead of under it: each round appends one
	// small batch newer than everything, then sends every kind once on
	// the all slice, so each query recomputes over a store of settled
	// size.
	probeRounds int
	// closedQueries runs one closed-loop query client over the full
	// kind × slice cycle.
	closedQueries bool
	// fixedAt anchors windowed queries at the end of history instead of
	// the advancing data clock.
	fixedAt bool
	// watch runs the sensitivity watcher at watchEvery.
	watch bool
	// satPool is the number of batches generated for the saturation
	// bursts. The query workloads send a quarter of ingest's: every
	// record the bursts add lengthens the watcher's re-sweep, and with
	// 2.5M added records a tick overlapped a share of the later bursts
	// that varied from run to run.
	satPool int

	segBytes     int64
	compactEvery time.Duration
}

const (
	batchRecords = 500
	// satShare is the share of a run left to the saturation bursts that
	// end it; the fixed-rate phase has the rest.
	satShare = 0.1
	users    = 1_000_000
	// epochMS is data time zero: 2026-01-05T00:00:00Z.
	epochMS     = 1767571200000
	windowSpan  = 24 * time.Hour
	watchEvery  = 2 * time.Second
	fsyncPolicy = "250ms"
)

var workloads = []workload{
	{
		name: "ingest",
		// One second of data time per record moves the data clock past
		// the CI's two 6 h blocks within the first second of the run.
		gridMS:       1000,
		appendRate:   ingestRate,
		appendBatch:  batchRecords,
		trickle:      time.Second,
		probeRounds:  24,
		satPool:      5000,
		segBytes:     4 << 20,
		compactEvery: 5 * time.Second,
	},
	{
		name:          "dashboard",
		history:       400_000,
		coldHistory:   200_000,
		gridMS:        324, // 400k records span 36 h of data time
		appendRate:    appendSmallRate,
		appendBatch:   appendSmall,
		closedQueries: true,
		watch:         true,
		satPool:       1250,
		segBytes:      1 << 20,
		// sensd's default period: the cold tier is built before start-up
		// and no fold runs inside a measured run.
		compactEvery: time.Minute,
	},
	{
		name:          "backfill",
		history:       400_000,
		coldHistory:   200_000,
		gridMS:        324,
		appendRate:    appendSmallRate,
		appendBatch:   appendSmall,
		late:          true,
		closedQueries: true,
		fixedAt:       true,
		satPool:       1250,
		segBytes:      1 << 20,
		// sensd's default period: the cold tier is built before start-up
		// and no fold runs inside a measured run.
		compactEvery: time.Minute,
	},
}

// ingestRate is the ingest workload's fixed open-loop rate in batches/s.
// Saturation on a 2-core host acks about 5M records/s, but the hot store
// keeps every record in RAM, so half of that for ten seconds would hold
// some 25M records (several GB); the rate is fixed lower, at 20k
// records/s, which keeps a run's server heap near 500 MB and the probe's
// recomputes over the grown store short. It also keeps a run's ingest
// samples under a thousand, so the tail is read at p95: at p99 only ten
// samples lie beyond, and two or three WAL fsync stalls on a busy shared
// disk moved it from 2 ms to 60 ms between runs.
const ingestRate = 40

// The query workloads' appends are small batches, as from many clients
// each flushing a few actions: 2500 records/s in requests frequent
// enough that a run's ingest median rests on some 1800 samples.
const (
	appendSmall     = 25
	appendSmallRate = 100
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Query kinds, in the order the closed-loop client cycles them.
const (
	qPlain = iota
	qNorm
	qCI
	qWindow
	numKinds
)

var kindNames = [numKinds]string{"plain", "norm", "ci", "window"}

// querySlices mirrors loadgen's query slices: the overall curve, one slice
// per dimension and a two-dimension combination.
var querySlices = []string{
	"",
	"action:SelectMail",
	"usertype:consumer",
	"period:8pm-2am",
	"action:Search,usertype:business",
}

type query struct {
	kind  int
	slice string
}

// path renders the request path; at anchors windowed queries.
func (q query) path(at timeutil.Millis) string {
	v := url.Values{}
	if q.slice != "" {
		v.Set("slice", q.slice)
	}
	switch q.kind {
	case qNorm:
		v.Set("mode", "normalized")
	case qCI:
		v.Set("ci", "1")
	case qWindow:
		v.Set("window", windowSpan.String())
		v.Set("at", time.UnixMilli(int64(at)).UTC().Format(time.RFC3339))
	}
	if len(v) == 0 {
		return "/v1/curves"
	}
	return "/v1/curves?" + v.Encode()
}

// batch is one pre-encoded beacon request.
type batch struct {
	id uint64 // request id stamped in reqHeader
	// recs are the records, kept for fixed-rate batches only: the answer
	// check runs before saturation, which needs just the counts.
	recs      []telemetry.Record
	n, usable int
	first     timeutil.Millis // time of the first record
	body      []byte
	// clock is the data clock once this batch is sent: the newest
	// record time generated so far, plus one.
	clock timeutil.Millis
}

// plan is everything a run sends, generated from the seed before timing.
type plan struct {
	w          workload
	history    []telemetry.Record // ack order
	appends    []batch            // fixed-rate phase, in schedule order
	probe      []batch            // one small batch per probe round
	saturation []batch            // closed-loop phase pool
	historyEnd timeutil.Millis    // data clock at the end of history
}

// stratum is how many consecutive records share one exact copy of the
// soak distribution: within each stratum every latency quantile, action,
// user type, time zone and failure share occurs exactly in proportion,
// and the seed only permutes which record gets which value. Seeds then
// differ in arrangement but not in the value mix, which keeps the
// estimator's data-dependent work alike across seeds.
const stratum = 10000

var tzs = [...]timeutil.Millis{-5 * timeutil.MillisPerHour, 0, 2 * timeutil.MillisPerHour}

// recordSource draws beacons from the soak distribution (log-normal
// latency around 250 ms, uniform actions, user types and time zones, 3%
// failed, 1M users), stratified per stratum records.
type recordSource struct {
	src                       *rng.Source
	lat                       []float64
	action, utype, tz, failed []int
	next                      int
}

func newRecordSource(src *rng.Source) *recordSource {
	rs := &recordSource{src: src, lat: make([]float64, stratum), next: stratum}
	for i := range rs.lat {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/stratum-1)
		rs.lat[i] = 50 + 400*math.Exp(0.5*z)
	}
	return rs
}

// refill permutes a fresh stratum.
func (rs *recordSource) refill() {
	rs.src.Shuffle(len(rs.lat), func(i, j int) { rs.lat[i], rs.lat[j] = rs.lat[j], rs.lat[i] })
	rs.action = rs.src.Perm(stratum)
	rs.utype = rs.src.Perm(stratum)
	rs.tz = rs.src.Perm(stratum)
	rs.failed = rs.src.Perm(stratum)
	rs.next = 0
}

// record draws the next beacon at time t.
func (rs *recordSource) record(t timeutil.Millis) telemetry.Record {
	if rs.next == stratum {
		rs.refill()
	}
	i := rs.next
	rs.next++
	return telemetry.Record{
		Time:      t,
		Action:    telemetry.ActionType(rs.action[i] % telemetry.NumActionTypes),
		LatencyMS: rs.lat[i],
		UserID:    rs.src.Uint64n(users) + 1,
		UserType:  telemetry.UserType(rs.utype[i] % telemetry.NumUserTypes),
		TZOffset:  tzs[rs.tz[i]%len(tzs)],
		Failed:    rs.failed[i] < stratum*3/100,
	}
}

// Record times are unique across history and the fixed-rate phase, so
// the by-time order the estimator sorts into does not depend on the ack
// order of concurrently in-flight batches, which a client cannot
// observe. History record i and advancing record i sit in the first half
// of grid cell i. Late records sit in the second half of a cell: in one
// of the first lateLanes-1 lanes of a distinct random slot in the
// fixed-rate phase, and in the last lane during saturation, where only
// each batch's first record (in cell b for batch b) needs to be unique,
// so sink-side spans can find their request.
const lateLanes = 4

func gridTime(w workload, cell int, offset int64) timeutil.Millis {
	return timeutil.Millis(epochMS + int64(cell)*w.gridMS + offset)
}

// generate builds the plan for seconds of measurement. It is a pure
// function of (w, seed, seconds).
func generate(w workload, seed uint64, seconds float64) (*plan, error) {
	src := rng.New(seed)
	rs := newRecordSource(src)
	half := w.gridMS / 2
	p := &plan{w: w}
	p.history = make([]telemetry.Record, w.history)
	for i := range p.history {
		p.history[i] = rs.record(gridTime(w, i, int64(src.Uint64n(uint64(half)))))
	}
	p.historyEnd = gridTime(w, w.history, 0)

	fixed := int(seconds * (1 - satShare) * w.appendRate)
	var lateSlots []int
	if w.late {
		if n := fixed * w.appendBatch; n > w.history*(lateLanes-1) || w.satPool > w.history {
			return nil, fmt.Errorf("%s: %d late records exceed %d slots", w.name, n, w.history*(lateLanes-1))
		}
		lateSlots = src.Perm(w.history * (lateLanes - 1))
	}
	laneMS := half / lateLanes
	next := w.history // next advancing grid cell
	clock := p.historyEnd
	recs := make([]telemetry.Record, batchRecords)
	mk := func(i, n int, sat bool) (batch, error) {
		recs := recs[:n]
		if !sat {
			recs = make([]telemetry.Record, n)
		}
		for k := range recs {
			var t timeutil.Millis
			switch {
			case w.late && !sat:
				slot := lateSlots[0]
				lateSlots = lateSlots[1:]
				cell, lane := slot/(lateLanes-1), slot%(lateLanes-1)
				t = gridTime(w, cell, half+int64(lane)*laneMS+int64(src.Uint64n(uint64(laneMS))))
			case w.late:
				cell := i - fixed - w.probeRounds
				if k > 0 {
					cell = src.Intn(w.history)
				}
				t = gridTime(w, cell, half+(lateLanes-1)*laneMS+int64(src.Uint64n(uint64(laneMS))))
			default:
				t = gridTime(w, next, int64(src.Uint64n(uint64(half))))
				next++
				clock = max(clock, t+1)
			}
			recs[k] = rs.record(t)
		}
		var buf bytes.Buffer
		tw := telemetry.NewWriter(&buf, telemetry.TBIN)
		if err := tw.WriteAll(recs); err != nil {
			tw.Close()
			return batch{}, err
		}
		if err := tw.Close(); err != nil {
			return batch{}, err
		}
		b := batch{id: uint64(i + 1), n: n, usable: usable(recs), first: recs[0].Time, body: buf.Bytes(), clock: clock}
		if !sat {
			b.recs = recs
		}
		return b, nil
	}
	for i := 0; i < fixed+w.probeRounds+w.satPool; i++ {
		sat := i >= fixed+w.probeRounds
		n := w.appendBatch
		switch {
		case sat:
			n = batchRecords
		case i >= fixed:
			n = appendSmall
		}
		b, err := mk(i, n, sat)
		if err != nil {
			return nil, err
		}
		switch {
		case sat:
			p.saturation = append(p.saturation, b)
		case i >= fixed:
			p.probe = append(p.probe, b)
		default:
			p.appends = append(p.appends, b)
		}
	}
	return p, nil
}

// windowAt is where a windowed query sent after batch i of the fixed-rate
// phase (-1: before any) anchors.
func (p *plan) windowAt(i int) timeutil.Millis {
	if p.w.fixedAt || i < 0 {
		return p.historyEnd
	}
	return p.appends[i].clock
}
