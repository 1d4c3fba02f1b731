package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/store"
	"autosens/internal/telemetry"
	"autosens/internal/wal"
)

// sensdFlags are the settings every sensd in a run shares with the
// in-process traced wiring.
func sensdFlags(w workload, walDir, coldDir, addr, admin string) []string {
	args := []string{
		"-addr", addr,
		"-admin-addr", admin,
		"-wal-dir", walDir,
		"-format", "tbin",
		"-fsync", fsyncPolicy,
		"-wal-segment-bytes", strconv.FormatInt(w.segBytes, 10),
		"-live",
		"-cold-dir", coldDir,
		"-compact-interval", w.compactEvery.String(),
		"-log-level", "warn",
	}
	if w.watch {
		args = append(args, "-watch", "-watch-interval", watchEvery.String())
	}
	return args
}

// freeAddrs picks n distinct free loopback ports: each is bound until
// all are picked, then released for sensd to bind.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// proc is one running sensd.
type proc struct {
	cmd      *exec.Cmd
	base     string // http://addr
	admin    string // http://admin-addr
	stderr   *bytes.Buffer
	exited   chan struct{}
	stopped  bool
	setupDur time.Duration
}

// startSensd execs bin and waits for the first 200 on /v1/status; the
// wait is the set-up time. A port picked free can be taken by another
// socket before sensd binds it; such a start is retried on new ports.
func startSensd(ctx context.Context, bin string, w workload, walDir, coldDir string, hc *http.Client) (*proc, error) {
	for attempt := 1; ; attempt++ {
		p, err := startOnce(ctx, bin, w, walDir, coldDir, hc)
		if err == nil || attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			return p, err
		}
	}
}

func startOnce(ctx context.Context, bin string, w workload, walDir, coldDir string, hc *http.Client) (*proc, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	addr, admin := addrs[0], addrs[1]
	p := &proc{base: "http://" + addr, admin: "http://" + admin, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	// sensd runs at a lower CPU priority than the load generator, so a
	// busy server cannot starve the generator off its schedule on a
	// small host; the server still gets every cycle the generator leaves.
	p.cmd = exec.Command("nice", append([]string{"-n", "10", bin}, sensdFlags(w, walDir, coldDir, addr, admin)...)...)
	// The server dies with the harness even if the harness is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.cmd.Stdout = io.Discard
	p.cmd.Stderr = p.stderr
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sensd: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState
		close(p.exited)
	}()
	for {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("sensd exited during start-up: %s", p.stderr.String())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Since(t0) > 120*time.Second {
			p.stop()
			return nil, fmt.Errorf("sensd not ready after 120s")
		}
		resp, err := hc.Get(p.base + "/v1/status")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setupDur = time.Since(t0)
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 10 s and waits for the
// process to exit. Safe to call more than once.
func (p *proc) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// status fetches /v1/status.
func fetchStatus(hc *http.Client, base string) (api.StatusResponse, error) {
	var st api.StatusResponse
	resp, err := hc.Get(base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// heapAlloc reads HeapAlloc after a forced GC from the pprof heap
// profile's MemStats trailer.
func heapAlloc(hc *http.Client, admin string) (float64, error) {
	resp, err := hc.Get(admin + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("heap profile has no HeapAlloc line")
}

// prepareHistory writes the plan's history to a fresh WAL in walDir,
// then compacts its first coldHistory records into coldDir, so sensd
// starts with a cold tier below the cutover and a hot remainder to warm.
func prepareHistory(p *plan, walDir, coldDir string) error {
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	if len(p.history) == 0 {
		return nil
	}
	if _, err := appendWAL(p.w, walDir, p.history[:p.w.coldHistory]); err != nil {
		return err
	}
	hotFirst, err := appendWAL(p.w, walDir, p.history[p.w.coldHistory:])
	if err != nil {
		return err
	}
	return compactBefore(walDir, coldDir, hotFirst)
}

// appendWAL appends recs to the WAL in dir in beacon-sized batches and
// returns the segment this incarnation started writing.
func appendWAL(w workload, dir string, recs []telemetry.Record) (string, error) {
	lg, rec, err := wal.Open(wal.Options{Dir: dir, Format: telemetry.TBIN, SegmentMaxBytes: w.segBytes, Sync: wal.SyncOff})
	if err != nil {
		return "", err
	}
	for lo := 0; lo < len(recs); lo += batchRecords {
		if err := lg.Append(recs[lo:min(lo+batchRecords, len(recs))]); err != nil {
			lg.Close()
			return "", err
		}
	}
	return rec.ActiveSegment, lg.Close()
}

// compactBefore folds every WAL segment before first into the cold tier.
func compactBefore(walDir, coldDir, first string) error {
	st, err := store.Open(store.Config{Dir: coldDir, WALDir: walDir, Active: func() string { return first }})
	if err != nil {
		return err
	}
	_, err = st.CompactOnce()
	return err
}
