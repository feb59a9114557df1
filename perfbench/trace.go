package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/wire"
)

// tracer collects per-layer observations during a traced phase. Every
// layer is measured from outside: by wrapping an interface the program
// already accepts, through the job-scoped transfer hooks, or by reading
// a counter the program already exports.
type tracer struct {
	// transfer
	handshakeMs, streamMs      samples
	senderUsed, receiverUsed   samples // per tick, fraction of staging in use
	ticksTo90, meanConc        samples // per session
	arena0                     transfer.ArenaStats
	ioops0                     int64
	bytes                      int64 // verified payload of the traced phase
	ops                        int64 // jobs of the traced phase
	mem0                       runtime.MemStats
	senderCapMb, receiverCapMb float64

	// fsim
	openUs, persistUs samples
	persistBytes      atomic.Int64

	// sched
	queueWaitMs, serviceMs, bookkeepingMs samples
	submitted, returned                   sync.Map // job name → time.Time

	// fleet
	endpoints  []string // from FleetRunner.Status
	placements sync.Map // endpoint id → *atomic.Int64

	// controller
	decideUs  samples
	decisions atomic.Int64

	// probe, sim, rl
	probeUs, simStepUs samples
	envTime            atomic.Int64 // ns spent inside the environment
	train              time.Duration
	trainRes           *rl.TrainResult
	rewardFrac         float64
	completion         time.Duration // the traced shaped transfer
}

// start drops anything observed during warm-up, enables the flight
// recorder's stage histograms and snapshots the process counters the
// traced phase is measured against.
func (t *tracer) start(cfg transfer.Config) {
	cfg = cfg.WithDefaults()
	t.senderCapMb = float64(cfg.SenderBufBytes) * 8 / 1e6
	t.receiverCapMb = float64(cfg.ReceiverBufBytes) * 8 / 1e6
	for _, s := range []*samples{&t.handshakeMs, &t.streamMs, &t.senderUsed, &t.receiverUsed,
		&t.ticksTo90, &t.meanConc, &t.openUs, &t.persistUs, &t.queueWaitMs, &t.serviceMs,
		&t.bookkeepingMs, &t.decideUs, &t.probeUs, &t.simStepUs} {
		s.reset()
	}
	t.persistBytes.Store(0)
	t.decisions.Store(0)
	t.envTime.Store(0)
	t.placements.Clear()
	flight.Enable(0)
	flight.Default().Reset()
	t.arena0 = transfer.Default().Stats()
	t.ioops0 = wire.IOOps()
	runtime.ReadMemStats(&t.mem0)
}

// sessionHooks returns fresh job-scoped hooks that time the handshake
// (Run start → OnSession) and the stream (OnSession → done) and sample
// staging occupancy and concurrency every probe tick.
func (t *tracer) sessionHooks() transfer.Hooks {
	var start, negotiated time.Time
	var nets []float64
	var conc float64
	// The engine ticks once more when the transfer completes, after the
	// staging buffers drained; occupancy counts only the ticks before.
	var pending *transfer.State
	return transfer.Hooks{
		OnStart:   func() { start = time.Now() },
		OnSession: func(transfer.Session) { negotiated = time.Now(); t.handshakeMs.add(ms(negotiated.Sub(start))) },
		OnTick: func(st transfer.State) {
			if pending != nil {
				t.senderUsed.add(1 - pending.SenderFree/t.senderCapMb)
				t.receiverUsed.add(1 - pending.ReceiverFree/t.receiverCapMb)
			}
			pending = &st
			nets = append(nets, st.Throughput[env.StageStreams])
			n := st.N
			conc += float64(n[env.StageRead] + n[env.StageConns]*n[env.StageStreams] + n[env.StageWrite])
		},
		OnDone: func(_ *transfer.Result, err error) {
			if err != nil || negotiated.IsZero() {
				return
			}
			t.streamMs.add(ms(time.Since(negotiated)))
			if len(nets) == 0 {
				return
			}
			peak := 0.0
			for _, v := range nets {
				peak = max(peak, v)
			}
			for i, v := range nets {
				if v >= 0.9*peak {
					t.ticksTo90.add(float64(i + 1))
					break
				}
			}
			t.meanConc.add(conc / float64(len(nets)))
		},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// emit writes every per-layer metric into rep. Layers the workload does
// not exercise report 0.
func (t *tracer) emit(rep *report) {
	flight.Disable()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fr := flight.Default()
	us := func(stage string, q float64) float64 { return fr.Hist(stage).Quantile(q) * 1e6 }
	mb := float64(t.bytes) / 1e6
	ops := float64(max(1, t.ops))

	rep.set("transfer.read_us.p50", "us", us(flight.StageRead, 0.5), "flight read-stage histogram")
	rep.set("transfer.read_us.p99", "us", us(flight.StageRead, 0.99), "")
	rep.set("transfer.net_us.p50", "us", us(flight.StageNet, 0.5), "flight net-stage histogram")
	rep.set("transfer.net_us.p99", "us", us(flight.StageNet, 0.99), "")
	rep.set("transfer.write_us.p50", "us", us(flight.StageWrite, 0.5), "flight write-stage histogram")
	rep.set("transfer.write_us.p99", "us", us(flight.StageWrite, 0.99), "")
	rep.set("transfer.sender_staging_used_frac", "frac", t.senderUsed.mean(), fmt.Sprintf("%d ticks", t.senderUsed.n()))
	rep.set("transfer.receiver_staging_used_frac", "frac", t.receiverUsed.mean(), "")
	rep.set("transfer.handshake_ms", "ms", t.handshakeMs.pct(0.5), fmt.Sprintf("median of %d sessions", t.handshakeMs.n()))
	rep.set("transfer.stream_ms", "ms", t.streamMs.pct(0.5), "")
	a := transfer.Default().Stats()
	gets := (a.Hits - t.arena0.Hits) + (a.Misses - t.arena0.Misses)
	rep.set("transfer.arena_miss_frac", "frac", ratio(float64(a.Misses-t.arena0.Misses), float64(gets)), fmt.Sprintf("%d leases", gets))

	rep.set("wire.ioops_per_MB", "1/MB", ratio(float64(wire.IOOps()-t.ioops0), mb), "")

	rep.set("fsim.open_us.p50", "us", t.openUs.pct(0.5), fmt.Sprintf("%d Open/Create calls", t.openUs.n()))
	rep.set("fsim.ledger_persist_us.p50", "us", t.persistUs.pct(0.5), "")
	rep.set("fsim.ledger_persist_calls_per_job", "count", float64(t.persistUs.n())/ops, "")
	rep.set("fsim.ledger_persist_bytes_per_job", "B", float64(t.persistBytes.Load())/ops, "")

	rep.set("sched.queue_wait_ms.p50", "ms", t.queueWaitMs.pct(0.5), fmt.Sprintf("%d jobs", t.queueWaitMs.n()))
	rep.set("sched.queue_wait_ms.p99", "ms", t.queueWaitMs.pct(0.99), "")
	rep.set("sched.service_ms.p50", "ms", t.serviceMs.pct(0.5), "")
	rep.set("sched.bookkeeping_ms.p50", "ms", t.bookkeepingMs.pct(0.5), "")

	imbalance, total := 0.0, 0.0
	for _, ep := range t.endpoints {
		var p float64
		if c, ok := t.placements.Load(ep); ok {
			p = float64(c.(*atomic.Int64).Load())
		}
		imbalance = max(imbalance, p)
		total += p
	}
	if total > 0 {
		imbalance /= total / float64(len(t.endpoints))
	}
	rep.set("fleet.placement_imbalance", "ratio", imbalance, "max÷mean sessions per endpoint")

	rep.set("controller.decide_us.p50", "us", t.decideUs.pct(0.5), "")
	rep.set("controller.decisions", "count", float64(t.decisions.Load()), "")
	rep.set("controller.ticks_to_90pct", "ticks", t.ticksTo90.pct(0.5), "median over sessions")
	rep.set("controller.mean_concurrency", "threads", t.meanConc.mean(), "read + conns×streams + write")

	rep.set("probe.step_us.p50", "us", t.probeUs.pct(0.5), "")
	rep.set("probe.steps", "count", float64(t.probeUs.n()), "")
	rep.set("sim.step_us.p50", "us", t.simStepUs.pct(0.5), "")
	rep.set("sim.step_us.p99", "us", t.simStepUs.pct(0.99), "")
	rep.set("sim.steps", "count", float64(t.simStepUs.n()), "")

	var res rl.TrainResult
	if t.trainRes != nil {
		res = *t.trainRes
	}
	rep.set("rl.train_s", "s", t.train.Seconds(), fmt.Sprintf("%d episodes", res.Episodes))
	rep.set("rl.agent_self_s", "s", (t.train - time.Duration(t.envTime.Load())).Seconds(), "training wall minus env Reset/Step time")
	rep.set("rl.converged_at_episode", "episode", float64(res.ConvergedAt), "-1: not within the budget")
	rep.set("rl.best_reward", "reward", res.BestReward, "")
	rep.set("rl.policy_reward_frac", "ratio", t.rewardFrac, "best episode reward ÷ (StepsPerEpisode·Rmax)")
	rep.set("controller.completion_s", "s", t.completion.Seconds(), "traced shaped transfer")

	rep.set("runtime.gc_cycles", "count", float64(mem.NumGC-t.mem0.NumGC), "")
	rep.set("runtime.alloc_MB_per_op", "MB", float64(mem.TotalAlloc-t.mem0.TotalAlloc)/1e6/ops, fmt.Sprintf("%d ops", int64(ops)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedStore wraps a destination or source store, timing Open/Create
// and ledger persistence. It forwards every optional fsim capability
// and returns the inner readers and writers unwrapped, so the engine's
// capability checks (ledgers, Stat, kio's syscall.Conn) see exactly what
// they would see without it.
type timedStore struct {
	inner fsim.Store
	st    fsim.Stater
	ls    fsim.LedgerStore
	la    fsim.LedgerAppender
	ll    fsim.LedgerLister
	t     *tracer
}

func newTimedStore(inner fsim.Store, t *tracer) (*timedStore, error) {
	s := &timedStore{inner: inner, t: t}
	var ok1, ok2, ok3, ok4 bool
	s.st, ok1 = inner.(fsim.Stater)
	s.ls, ok2 = inner.(fsim.LedgerStore)
	s.la, ok3 = inner.(fsim.LedgerAppender)
	s.ll, ok4 = inner.(fsim.LedgerLister)
	if !(ok1 && ok2 && ok3 && ok4) {
		return nil, fmt.Errorf("store %T lacks an optional fsim capability the wrapper forwards", inner)
	}
	return s, nil
}

func (s *timedStore) Open(name string, size int64) (fsim.FileReader, error) {
	t0 := time.Now()
	r, err := s.inner.Open(name, size)
	s.t.openUs.since(t0, time.Microsecond)
	return r, err
}

func (s *timedStore) Create(name string, size int64) (fsim.FileWriter, error) {
	t0 := time.Now()
	w, err := s.inner.Create(name, size)
	s.t.openUs.since(t0, time.Microsecond)
	return w, err
}

func (s *timedStore) Stat(name string) (int64, error) { return s.st.Stat(name) }

func (s *timedStore) SaveLedger(session string, data []byte) error {
	t0 := time.Now()
	err := s.ls.SaveLedger(session, data)
	s.t.persistUs.since(t0, time.Microsecond)
	s.t.persistBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) AppendLedger(session string, data []byte) error {
	t0 := time.Now()
	err := s.la.AppendLedger(session, data)
	s.t.persistUs.since(t0, time.Microsecond)
	s.t.persistBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) LoadLedger(session string) ([]byte, error) { return s.ls.LoadLedger(session) }
func (s *timedStore) RemoveLedger(session string) error         { return s.ls.RemoveLedger(session) }
func (s *timedStore) LoadJournal(session string) ([]byte, error) {
	return s.la.LoadJournal(session)
}
func (s *timedStore) ResetJournal(session string) error       { return s.la.ResetJournal(session) }
func (s *timedStore) ListLedgers() ([]fsim.LedgerInfo, error) { return s.ll.ListLedgers() }

// timedRunner wraps the scheduler's runner. With the submit time the
// client records and the Wait return it observes, it splits a job's
// latency into queue wait (Submit → Run), service (Run) and scheduler
// bookkeeping (Run return → Wait return).
type timedRunner struct {
	inner *sched.FleetRunner
	t     *tracer
}

func (r *timedRunner) Run(ctx context.Context, spec sched.JobSpec, ctrl env.Controller) (*transfer.Result, error) {
	entry := time.Now()
	if v, ok := r.t.submitted.LoadAndDelete(spec.Name); ok {
		r.t.queueWaitMs.add(ms(entry.Sub(v.(time.Time))))
	}
	res, err := r.inner.Run(ctx, spec, ctrl)
	r.t.serviceMs.since(entry, time.Millisecond)
	r.t.returned.Store(spec.Name, time.Now())
	if ep := r.inner.EndpointOf(spec.Transfer.SessionID); ep != "" {
		c, _ := r.t.placements.LoadOrStore(ep, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	return res, err
}

// timedController times every decision of the wrapped controller.
type timedController struct {
	inner env.Controller
	t     *tracer
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(s env.State) env.Action {
	t0 := time.Now()
	a := c.inner.Decide(s)
	c.t.decideUs.since(t0, time.Microsecond)
	c.t.decisions.Add(1)
	return a
}

// scoringController keeps the env.AlternativeScorer capability of a
// wrapped controller visible, so the flight recorder scores the same
// candidates it would score without the wrapper.
type scoringController struct {
	*timedController
	env.AlternativeScorer
}

func (t *tracer) wrapController(inner env.Controller) env.Controller {
	c := &timedController{inner: inner, t: t}
	if s, ok := inner.(env.AlternativeScorer); ok {
		return scoringController{c, s}
	}
	return c
}

// timedEnv wraps the training environment, timing every Reset and Step
// so the learner's own time is the training wall minus the env time.
type timedEnv struct {
	env.Environment
	t *tracer
}

func (e timedEnv) Reset() env.State {
	t0 := time.Now()
	s := e.Environment.Reset()
	e.t.envTime.Add(int64(time.Since(t0)))
	return s
}

func (e timedEnv) Step(a env.Action) (env.State, float64) {
	t0 := time.Now()
	s, r := e.Environment.Step(a)
	d := time.Since(t0)
	e.t.envTime.Add(int64(d))
	e.t.simStepUs.add(float64(d) / float64(time.Microsecond))
	return s, r
}

// timedProbe wraps a probe runner, timing every measurement interval.
func (t *tracer) timedProbe(inner probe.Runner) probe.Runner {
	return probe.RunnerFunc(func(a env.Action) (float64, float64, float64) {
		t0 := time.Now()
		r, n, w := inner.Probe(a)
		t.probeUs.since(t0, time.Microsecond)
		return r, n, w
	})
}
