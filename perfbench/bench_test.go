package main

import (
	"bytes"
	"testing"
	"time"
)

// TestGenerateIsPureFunctionOfSeed pins that a seed fixes every request
// byte: two generations with one seed agree, another seed differs.
func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		w.history, w.coldHistory = min(w.history, 4000), min(w.coldHistory, 2000)
		w.satPool = 4
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.appends) == 0 || len(a.appends) != len(b.appends) || len(a.saturation) != len(b.saturation) {
			t.Fatalf("%s: batch counts differ: %d/%d", w.name, len(a.appends), len(b.appends))
		}
		for i := range a.appends {
			if !bytes.Equal(a.appends[i].body, b.appends[i].body) || a.appends[i].id != b.appends[i].id {
				t.Fatalf("%s: batch %d differs between runs of one seed", w.name, i)
			}
		}
		for i := range a.saturation {
			if !bytes.Equal(a.saturation[i].body, b.saturation[i].body) {
				t.Fatalf("%s: saturation batch %d differs between runs of one seed", w.name, i)
			}
		}
		for i := range a.history {
			if a.history[i] != b.history[i] {
				t.Fatalf("%s: history record %d differs", w.name, i)
			}
		}
		if bytes.Equal(a.appends[0].body, c.appends[0].body) {
			t.Fatalf("%s: seeds 7 and 8 generated the same first batch", w.name)
		}
		if da, db := newLoader(nil, "", a).schedule(), newLoader(nil, "", b).schedule(); len(da) != len(db) {
			t.Fatalf("%s: schedules differ", w.name)
		}
	}
}

// TestRecordTimesUnique pins the property the answer check relies on:
// no two generated records share a time, so the by-time order does not
// depend on the ack order of concurrent batches.
func TestRecordTimesUnique(t *testing.T) {
	for _, w := range workloads {
		w.history, w.coldHistory = min(w.history, 4000), min(w.coldHistory, 2000)
		w.satPool = 8
		p, err := generate(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		add := func(tm int64) {
			if seen[tm] {
				t.Fatalf("%s: time %d generated twice", w.name, tm)
			}
			seen[tm] = true
		}
		for _, r := range p.history {
			add(int64(r.Time))
		}
		for _, b := range append(append([]batch(nil), p.appends...), p.probe...) {
			for _, r := range b.recs {
				add(int64(r.Time))
				if w.late && r.Time >= p.historyEnd {
					t.Fatalf("%s: late record at %d is not inside history", w.name, r.Time)
				}
				if !w.late && r.Time < p.historyEnd {
					t.Fatalf("%s: advancing record at %d is older than history", w.name, r.Time)
				}
			}
		}
		// Saturation batches keep no records; their first times must be
		// unique for span attribution.
		for _, b := range p.saturation {
			add(int64(b.first))
		}
	}
}

func TestTailPick(t *testing.T) {
	cases := []struct {
		n    int
		name string
	}{
		{1000, "p99"}, {999, "p95"}, {200, "p95"}, {199, "p90"}, {100, "p90"},
		{99, "p75"}, {40, "p75"}, {39, "p50"}, {20, "p50"}, {3, "p50"},
	}
	for _, c := range cases {
		if got, _ := tailPick(c.n); got != c.name {
			t.Errorf("tailPick(%d) = %s, want %s", c.n, got, c.name)
		}
	}
	// 1..200: p95 by nearest rank is the 190th sample, with 10 beyond.
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	d := summarize(s)
	if d.TailAt != "p95" || d.Tail != 190 || d.N != 200 || d.P50 != 100 {
		t.Fatalf("summarize(1..200) = %+v", d)
	}
}

func TestSelfTimeSubtractsOnlyCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 40 * ms},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90 * ms, End: 130 * ms}, // clipped at the parent's end
		{Name: "x", Parent: -1, Start: 50 * ms, End: 60 * ms}, // not a child
		{Name: "g", Parent: 1, Start: 12 * ms, End: 14 * ms},  // grandchild: a's, not root's
		{Name: "open", Parent: 0, Start: 60 * ms, End: -1},    // never closed
	}
	kids := children(spans)
	// covered: [10,40) + [90,100) = 40ms
	if got := selfTime(spans, kids, 0); got != 60*ms {
		t.Fatalf("root self = %v, want 60ms", got)
	}
	if got := selfTime(spans, kids, 1); got != 18*ms {
		t.Fatalf("a self = %v, want 18ms", got)
	}
	if got := selfTime(spans, kids, 4); got != 10*ms {
		t.Fatalf("x self = %v, want 10ms", got)
	}
}

func TestRecorderParentsByRequest(t *testing.T) {
	r := newRecorder()
	root := r.beginRoot("collector.beacons", 42, "")
	child := r.begin("wal.write", 42, -1, "")
	orphan := r.begin("wal.write", 43, -1, "")
	r.end(child)
	r.end(orphan)
	r.end(root)
	s := r.snapshot()
	if s[child].Parent != root || s[orphan].Parent != -1 {
		t.Fatalf("parents: child %d (want %d), orphan %d (want -1)", s[child].Parent, root, s[orphan].Parent)
	}
}
