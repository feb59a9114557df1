package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/marlin"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// Small-jobs sizing: each job is about 1 MiB of 1–32 KiB files, so
// per-session and per-file work (handshake, placement, admission, ledger
// persistence, per-file commit) outweighs moving the bytes. One client
// keeps the process at about one of the two CPUs the benchmark was sized
// on. Two clients kept ~1.6 CPUs busy, so any CPU that other tenants of
// the host took went straight into queueing: a competing busy process
// slowed their median job by 30%, against 9% with one client.
const (
	jobBytes   = 1 << 20
	jobMinFile = 1 << 10
	jobMaxFile = 32 << 10
	clients    = 1
	fleetSize  = 2
)

// jobBudget is the daemon's default per-stage worker budget.
var jobBudget = [env.StageCount]int{32, 16, 32, 32}

// fleetSched is one scheduler running its jobs on an in-process
// receiver fleet that writes into a verifying synthetic sink.
type fleetSched struct {
	s     *sched.Scheduler
	fleet *sched.FleetRunner
	sink  *fsim.SyntheticStore
	t     *tracer
	seed  int64
	jobs  atomic.Int64 // jobs submitted, numbering job and session names
}

// newFleetSched builds the scheduler and starts the fleet. With a
// tracer, the sink, the runner and each job's Marlin controller are
// wrapped.
func newFleetSched(seed int64, t *tracer) (*fleetSched, error) {
	sink := fsim.NewSyntheticStore()
	sink.Verify = true
	var store fsim.Store = sink
	newCtrl := func() env.Controller { return marlin.New() }
	if t != nil {
		ws, err := newTimedStore(sink, t)
		if err != nil {
			return nil, err
		}
		store = ws
		newCtrl = func() env.Controller { return t.wrapController(marlin.New()) }
	}
	fr := &sched.FleetRunner{Size: fleetSize, Store: store}
	var runner sched.Runner = fr
	if t != nil {
		runner = &timedRunner{inner: fr, t: t}
	}
	s, err := sched.New(sched.Config{Budget: jobBudget, NewController: newCtrl, Runner: runner})
	if err != nil {
		return nil, err
	}
	st := fr.Status()
	if st.Size != fleetSize {
		s.Close()
		fr.Close()
		return nil, fmt.Errorf("fleet started with %d endpoints, want %d", st.Size, fleetSize)
	}
	if t != nil {
		for _, ep := range st.Endpoints {
			t.endpoints = append(t.endpoints, ep.ID)
		}
	}
	return &fleetSched{s: s, fleet: fr, sink: sink, t: t, seed: seed}, nil
}

// job submits one job, waits for it and checks it: state done, and
// every file of its manifest fully written (the sink verifies content as
// it is written). Each client reuses one file-name prefix, and a job
// owns its files until it returns, so the check compares each file's
// byte count before and after, and the shared sink's bookkeeping stays
// the same size however long the run.
func (f *fleetSched) job(client int, rng *rand.Rand) (time.Duration, int64, error) {
	name := fmt.Sprintf("s%d-c%d-j%05d", f.seed, client, f.jobs.Add(1))
	m := workload.Mixed(jobBytes, jobMinFile, jobMaxFile, rng)
	before := make([]int64, len(m))
	for i := range m {
		m[i].Name = fmt.Sprintf("c%d/%s", client, m[i].Name)
		before[i] = f.sink.WrittenBytes(m[i].Name)
	}
	spec := sched.JobSpec{Name: name, Manifest: m, Transfer: transfer.Config{SessionID: name}}
	if f.t != nil {
		spec.Transfer.Hooks = f.t.sessionHooks()
		f.t.submitted.Store(name, time.Now())
	}
	t0 := time.Now()
	id, err := f.s.Submit(spec)
	if err != nil {
		return 0, 0, err
	}
	st, err := f.s.Wait(context.Background(), id)
	d := time.Since(t0)
	if f.t != nil {
		if v, ok := f.t.returned.LoadAndDelete(name); ok {
			f.t.bookkeepingMs.add(ms(time.Since(v.(time.Time))))
		}
	}
	if err != nil {
		return d, 0, err
	}
	if st.State != sched.Done.String() {
		return d, 0, fmt.Errorf("job %s ended %s: %s", name, st.State, st.Error)
	}
	for i, file := range m {
		if w := f.sink.WrittenBytes(file.Name) - before[i]; w != file.Size {
			return d, 0, fmt.Errorf("job %s: %s got %d of %d bytes", name, file.Name, w, file.Size)
		}
	}
	return d, m.TotalBytes(), nil
}

// closedLoop runs the clients until budget seconds have passed, each
// submitting its next job only when the previous one returned.
func (f *fleetSched) closedLoop(budget float64, rep *report, st *phaseStats) {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0, t0 := cpuSeconds(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(f.seed*7919 + int64(c)))
			for time.Now().Before(deadline) {
				d, b, err := f.job(c, rng)
				mu.Lock()
				rep.op(err)
				if err == nil {
					st.lat.add(ms(d))
					st.bytes += float64(b)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall += time.Since(t0).Seconds()
	st.cpu += cpuSeconds() - c0
}

// close stops the scheduler and the fleet, and fails the run if the
// sink saw corrupt bytes at any point.
func (f *fleetSched) close(rep *report) {
	f.s.Close()
	f.fleet.Close()
	if errs := f.sink.Errors(); len(errs) > 0 {
		rep.fail(fmt.Errorf("sink reported %d verification errors, first: %v", len(errs), errs[0]))
	}
}

// runSmallJobs drives a closed loop of small sessionful jobs through the
// scheduler and a two-endpoint receiver fleet.
func runSmallJobs(o options) (*report, error) {
	rep := newReport()
	// warm runs one job outside the measurement and checks it.
	warm := func(f *fleetSched) error {
		_, _, err := f.job(0, rand.New(rand.NewSource(o.seed)))
		rep.op(err)
		return err
	}
	if !o.trace {
		// Set-up: scheduler, fleet start and one warm-up job, 25 times
		// (each takes milliseconds); the last scheduler is the one
		// measured.
		var f *fleetSched
		var err error
		setup := bestOf(25, func() (time.Duration, bool) {
			if err != nil {
				return 0, false
			}
			if f != nil {
				f.close(rep)
			}
			t0 := time.Now()
			if f, err = newFleetSched(o.seed, nil); err != nil {
				return 0, false
			}
			ok := warm(f) == nil
			return time.Since(t0), ok
		})
		if err != nil {
			return nil, err
		}
		defer f.close(rep)
		ws := windows(o.seconds, func(budget float64, st *phaseStats) {
			f.closedLoop(budget, rep, st)
		})
		emitWindows(rep, ws, "one scheduler job, Submit→Wait, of ~1 MiB in 1–32 KiB files")
		rep.set("setup_s", "s", setup, "fastest of 25 sched.New + fleet start + warm-up job")
		rep.set("peak_rss_MB", "MB", peakRSSMB(), "")
		return rep, nil
	}

	plain, err := newFleetSched(o.seed, nil)
	if err != nil {
		return nil, err
	}
	warm(plain)
	var ps phaseStats
	plain.closedLoop(o.seconds/2, rep, &ps)
	plain.close(rep)

	t := &tracer{}
	traced, err := newFleetSched(o.seed, t)
	if err != nil {
		return nil, err
	}
	defer traced.close(rep)
	warm(traced)
	var ts phaseStats
	t.start(transfer.Config{})
	traced.closedLoop(o.seconds/2, rep, &ts)
	t.bytes = int64(ts.bytes)
	t.ops = int64(ts.lat.n())
	t.emit(rep)
	rep.set("trace_overhead_frac", "frac", ts.lat.pct(0.5)/ps.lat.pct(0.5)-1, "traced vs untraced median job latency")
	return rep, nil
}
