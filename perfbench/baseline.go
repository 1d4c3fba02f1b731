package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// baseline is the committed seed-commit reference (baseline.json):
// quartiles of every end-to-end metric over repeated untraced runs per
// workload, and one traced run's per-layer numbers.
type baseline struct {
	Fingerprint fingerprint                     `json:"fingerprint"`
	Seconds     float64                         `json:"seconds"`
	Workloads   map[string]map[string]quartiles `json:"workloads"`
	Traced      map[string]map[string]float64   `json:"traced"`
}

type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// bound is one end-to-end metric's direction and regression bound.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(root string) map[string]bound {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	out := map[string]bound{}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out
}

// compareBaseline prints this run against the committed baseline. A run
// on another host fingerprint has no baseline: the comparison would mix
// hardware with code.
func compareBaseline(out io.Writer, path string, info *runInfo) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(out, "  NO BASELINE: no baseline file")
		return
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintln(out, "  NO BASELINE: unreadable baseline:", err)
		return
	}
	if base.Fingerprint.host() != info.Fingerprint.host() {
		fmt.Fprintf(out, "  NO BASELINE: host fingerprint %s differs from the baseline's %s\n",
			info.Fingerprint.host(), base.Fingerprint.host())
		return
	}
	if info.Trace {
		fmt.Fprintln(out, "  baseline per-layer numbers are in", path, "(traced runs are not gated)")
		return
	}
	ref := base.Workloads[info.Workload]
	if len(ref) == 0 {
		fmt.Fprintln(out, "  NO BASELINE: no baseline for workload", info.Workload)
		return
	}
	same := "same code as baseline"
	if base.Fingerprint.Tree != info.Fingerprint.Tree {
		same = "code differs from baseline tree " + base.Fingerprint.Tree
	}
	fmt.Fprintf(out, "  vs baseline median of %d runs (%s):\n", ref["setup_s"].N, same)
	bd := bounds(filepath.Dir(filepath.Dir(path)))
	names := make([]string, 0, len(ref))
	for n := range ref {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := info.Result.Metrics[n]
		if !ok || ref[n].Median == 0 {
			continue
		}
		ratio := m.Value / ref[n].Median
		worse := ratio - 1
		if bd[n].Better == "higher" {
			worse = 1 - ratio
		}
		verdict := "within bound"
		if bound := bd[n].Bound; bound > 0 && worse > bound {
			verdict = fmt.Sprintf("WORSE than bound %.2f", bound)
		}
		fmt.Fprintf(out, "    %-28s base %12.4f  this/base %.3f  %s\n", n, ref[n].Median, ratio, verdict)
	}
}
