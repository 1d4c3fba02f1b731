// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds sensd and this harness from the
// checkout), generates one workload's inputs from --seed, drives the
// real sensd binary over HTTP and checks every curve it served against
// the batch estimator. With --trace 1 it instead wires the same
// components in process behind span recorders and reports per-layer
// numbers. The last line of standard output is the JSON result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the human-facing side of a run: which percentile each tail
// used, validity, fingerprint. It goes to standard error and to a JSON
// file beside the build outputs.
type runInfo struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Valid       bool              `json:"valid"`
	Invalid     []string          `json:"invalid,omitempty"`
	Notes       map[string]string `json:"notes"`
	Errors      []string          `json:"errors,omitempty"`
	Result      result            `json:"result"`
}

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root
	sensd    string // sensd binary
	work     string // work directory for this run
}

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload: ingest, dashboard or backfill")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced in-process run and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	sensdBin := flag.String("sensd", "", "sensd binary (built from the checkout)")
	work := flag.String("work", "", "work directory (removed at exit)")
	printFP := flag.Bool("fingerprint", false, "print the host and code fingerprint as JSON and exit")
	flag.Parse()

	if *printFP {
		b, err := json.Marshal(hostFingerprint(*root))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}

	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *sensdBin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --sensd, --work and a positive --seconds are required (run via run.sh)")
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, sensd: *sensdBin,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))}
	defer os.RemoveAll(cfg.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	info := runInfo{Workload: w.name, Seed: *seed, Trace: cfg.trace,
		Fingerprint: hostFingerprint(cfg.root), Valid: true, Notes: map[string]string{}}
	var res result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, &info)
	} else {
		res, err = runUntraced(ctx, cfg, &info)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	info.Result = res
	report(os.Stderr, cfg, &info)
	if err := saveRun(*work, &info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save run record:", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// fingerprint identifies the host and the code measured; runs compare
// only within one fingerprint.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Tree is a hash of the checkout's Go sources and module files; the
	// checkout carries no git metadata, so this stands in for the commit.
	Tree string `json:"tree"`
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s/nproc=%d/gomaxprocs=%d/%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go)
}

func hostFingerprint(root string) fingerprint {
	f := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	f.Tree = treeHash(root)
	return f
}

// treeHash hashes every .go, go.mod and go.sum file under root, skipping
// the benchmark and build outputs, in path order.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func saveRun(work string, info *runInfo) error {
	dir := filepath.Join(work, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if info.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", info.Workload, info.Seed, trace)), b, 0o644)
}

// report prints every metric by name with its unit, the tail percentile
// and sample count behind it, validity, and the baseline comparison.
func report(out io.Writer, cfg config, info *runInfo) {
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v host=%s tree=%s\n",
		info.Workload, info.Seed, info.Trace, info.Fingerprint.host(), info.Fingerprint.Tree)
	names := make([]string, 0, len(info.Result.Metrics))
	for n := range info.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := info.Result.Metrics[n]
		line := fmt.Sprintf("  %-40s %14.4f %s", n, m.Value, m.Unit)
		if note := info.Notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(out, line)
	}
	for n, v := range info.Notes {
		if strings.HasPrefix(n, "phase ") {
			fmt.Fprintf(out, "  %s: %s\n", n, v)
		}
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d correct=%v\n", info.Result.Attempted, info.Result.Failed, info.Result.Correct)
	for _, e := range info.Errors {
		fmt.Fprintln(out, "  FAIL:", e)
	}
	if info.Valid {
		fmt.Fprintln(out, "  run valid")
	} else {
		fmt.Fprintln(out, "  RUN INVALID (not a system failure):", strings.Join(info.Invalid, "; "))
	}
	compareBaseline(out, filepath.Join(cfg.root, "perfbench", "baseline.json"), info)
}
