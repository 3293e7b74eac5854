package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// After ')': state(3) ... utime is field 14, stime 15 of the full line.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procStatusKB reads one "Vm*" field (in KiB) of /proc/<pid>/status; pid 0
// means this process.
func procStatusKB(pid int, field string) (int64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("%s not in %s", field, path)
}

// rssSampler samples the resident set of a process (0 = this one) until
// it is stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the sampler goroutine until done closes
}

func sampleRSS(pid int, every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, float64(kb)/1024)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median and peak resident set
// in MiB.
func (s *rssSampler) finish() (med, peak float64) {
	close(s.stop)
	<-s.done
	return median(s.samples), quantile(s.samples, 1)
}

// sleepCtx sleeps for d or until ctx ends, reporting whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Child processes are registered so a deadline can kill them all.
var (
	childMu  sync.Mutex
	children = map[int]*os.Process{}
)

func registerChild(p *os.Process) {
	childMu.Lock()
	children[p.Pid] = p
	childMu.Unlock()
}

func unregisterChild(p *os.Process) {
	childMu.Lock()
	delete(children, p.Pid)
	childMu.Unlock()
}

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for pid, p := range children {
		p.Kill()
		delete(children, pid)
	}
}

// quietGC turns the driver's garbage collector off for a measured server
// phase, so its pauses and marking do not compete with convoyd for the
// CPUs; a memory limit above the live heap still bounds the driver. The
// returned function restores the settings.
func quietGC() func() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(m.HeapAlloc) + 512<<20)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}
