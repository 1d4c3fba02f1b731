package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one HTTP
// request share Req, the id the generator stamped in reqHeader; Parent
// is the index of the span that caused this one (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Req    uint64        `json:"req,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attr   string        `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// reqHeader carries the generator's request id on every request.
const reqHeader = "X-Bench-Request"

// recorder keeps spans in memory until the run ends. All methods are
// safe for concurrent use.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	roots map[uint64]int // request id → its handler span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), roots: make(map[uint64]int)}
}

// begin opens a span and returns its index. A span with a request id and
// no explicit parent hangs off that request's root span, if one is open.
func (r *recorder) begin(name string, req uint64, parent int, attr string) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent < 0 && req != 0 {
		if p, ok := r.roots[req]; ok {
			parent = p
		}
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1, Attr: attr})
	return len(r.spans) - 1
}

// beginRoot opens a request's handler span and registers it as the
// parent of later spans carrying the same id.
func (r *recorder) beginRoot(name string, req uint64, attr string) int {
	id := r.begin(name, req, -1, attr)
	if req != 0 {
		r.mu.Lock()
		r.roots[req] = id
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// setAttr replaces a span's attribute (e.g. a cache outcome only known
// after the call).
func (r *recorder) setAttr(id int, attr string) {
	r.mu.Lock()
	r.spans[id].Attr = attr
	r.mu.Unlock()
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End < 0 {
			s.Parent = -1
		}
		out = append(out, s)
	}
	return out
}

// writeSpans writes every span, one JSON object a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children indexes spans by parent.
func children(spans []span) map[int][]int {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of its interval that its
// own child spans cover. Children are clipped to the parent's interval
// and overlapping children are counted once.
func selfTime(spans []span, kids map[int][]int, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids[id] {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var curLo, curHi time.Duration = 0, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.dur() - covered
}

// spanMS collects the durations (ms) of closed spans named name whose
// attribute matches attr (any attribute when attr is "*").
func spanMS(spans []span, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 && (attr == "*" || s.Attr == attr) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
