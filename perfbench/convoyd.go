package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one convoyd process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan struct{} // closed once the process has exited
	waitErr error         // valid after done closes
}

// startConvoyd starts bin with args plus a loopback -addr, and returns once
// /healthz answers (convoyd replays its log and backfills its archive
// before it listens, so that is when it serves). The returned duration is
// from exec to serving.
func startConvoyd(ctx context.Context, bin, logPath string, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start convoyd: %w", err)
	}
	registerChild(cmd.Process)
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		unregisterChild(cmd.Process)
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(begin), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("convoyd exited before serving (%v): %s", d.waitErr, d.logTail())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, errors.New("convoyd did not serve within 90s")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts convoyd down gracefully (SIGTERM: drain, final persist) and
// waits for it; after 30 s it is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("convoyd did not stop within 30s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("convoyd exit: %v: %s", d.waitErr, d.logTail())
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// serverStats mirrors the parts of GET /v1/stats the benchmark samples.
type serverStats struct {
	Shards []struct {
		QueueLen int `json:"queue_len"`
	} `json:"shards"`
	Feeds map[string]struct {
		PendingTicks int `json:"pending_ticks"`
	} `json:"feeds"`
	Admission struct {
		QueueFullTotal int64 `json:"queue_full_total"`
	} `json:"admission"`
	Archive *struct {
		QueueLen int `json:"queue_len"`
	} `json:"archive"`
}

func fetchStats(ctx context.Context, client *http.Client, base string) (serverStats, error) {
	var st serverStats
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// backlog samples /v1/stats while a measured phase runs: the largest
// shard-queue length, pending-tick count and archive index queue seen, and
// the mean backlog of each half of the phase, whose growth flags a rate
// the server cannot sustain.
type backlog struct {
	stop chan struct{}
	done chan struct{}

	queueMax, pendingMax, archMax int
	queueFull                     int64 // admission's queue_full count at the last sample
	halves                        [2]struct{ sum, n float64 }
	err                           error
}

func sampleBacklog(ctx context.Context, client *http.Client, base string, phase time.Duration) *backlog {
	b := &backlog{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(b.done)
		// Sample every 50–150 ms, not on a fixed period that could lock
		// onto the schedule's or convoyd's own.
		jitter := rand.New(rand.NewSource(1))
		for {
			t := time.NewTimer(time.Duration(50+jitter.Intn(100)) * time.Millisecond)
			select {
			case <-b.stop:
				t.Stop()
				return
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			st, err := fetchStats(ctx, client, base)
			if err != nil {
				b.err = err
				return
			}
			q, p := 0, 0
			for _, sh := range st.Shards {
				q += sh.QueueLen
			}
			for _, f := range st.Feeds {
				p = max(p, f.PendingTicks)
			}
			b.queueMax, b.pendingMax = max(b.queueMax, q), max(b.pendingMax, p)
			b.queueFull = st.Admission.QueueFullTotal
			if st.Archive != nil {
				b.archMax = max(b.archMax, st.Archive.QueueLen)
			}
			h := 0
			if time.Since(start) > phase/2 {
				h = 1
			}
			if time.Since(start) <= phase {
				b.halves[h].sum += float64(q)
				b.halves[h].n++
			}
		}
	}()
	return b
}

// finish stops the sampler and reports whether the backlog grew: the
// second half's mean shard-queue length above the first's by more than
// one batch.
func (b *backlog) finish() (grew bool, err error) {
	close(b.stop)
	<-b.done
	if b.err != nil {
		return false, b.err
	}
	mean := func(h int) float64 { return b.halves[h].sum / max(b.halves[h].n, 1) }
	return mean(1) > mean(0)+1, nil
}
