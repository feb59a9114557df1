// Package sim implements the lightweight I/O–network dynamics simulator
// of AutoMDT (Algorithm 1 of the paper). It emulates one second of
// modular transfer activity per Step call with discrete events — one
// pending (time, threadType) task per emulated thread — instead of real
// threads, tracking the application-level staging buffers at the sender
// and receiver.
//
// The simulator is initialized with per-thread throughputs (TPT), aggregate
// bandwidths, and buffer capacities measured during the exploration and
// logging phase (internal/probe), and is what makes offline PPO training
// possible: it replicates the buffer dynamics of Figure 1 — reads stall
// when the sender buffer fills, network transfers need sender data and
// receiver space, writes need receiver data — so the agent can learn the
// coupled dynamics without touching a production network.
//
// # Event loop
//
// Events pop in strict (t, seq) order, where seq numbers events in the
// order they were scheduled. Pending events live in two typed,
// allocation-free queues:
//
//   - a binary min-heap of chunk-completion events (t+dTask+tiny), whose
//     times depend on the jittered rate and arrive in any order;
//   - a FIFO ring of the start-of-step tasks and every blocked retry
//     (t+RetryDelay).
//
// Step repeatedly pops whichever head is smaller. The FIFO needs no
// sorting: pops come out in nondecreasing (t, seq) order and every push
// is later than the pop that made it, so the retry times t+RetryDelay of
// successive pops are nondecreasing (floating-point addition is
// monotone) and their fresh seq numbers increase. The start-of-step
// tasks (t = 0, seq 0…n-1) precede them all. Since (t, seq) is a strict
// total order, the merged pop sequence — and so every Rand draw and
// every float operation — is the one a single priority queue over all
// events would produce. Every emulated thread has exactly one pending
// event, so both queues are bounded by the thread count and reuse their
// storage across steps.
//
// Units: data volumes are megabits (Mb) and rates are megabits per second
// (Mbps), matching the paper's reporting.
package sim

import (
	"fmt"
	"math/rand"
)

// Stage identifies one of the three pipeline operations.
type Stage int

// The three pipeline stages of a modular transfer.
const (
	Read Stage = iota
	Network
	Write
)

// String returns the lowercase stage name.
func (s Stage) String() string {
	switch s {
	case Read:
		return "read"
	case Network:
		return "network"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Config describes the emulated end-to-end path.
type Config struct {
	// TPT holds the per-thread throughput of each stage in Mbps
	// (the maximum rate a single thread achieves).
	TPT [3]float64
	// Bandwidth holds the aggregate capacity of each stage in Mbps; a
	// stage's total rate is min(n·TPT, Bandwidth). Zero means unlimited.
	Bandwidth [3]float64
	// ConnMbps is the per-connection ceiling of the network stage in
	// Mbps: with n_c data connections the aggregate network rate is
	// additionally capped at n_c·ConnMbps regardless of how many streams
	// are multiplexed over each connection — the single-socket ceiling
	// that striping exists to lift. Zero means uncapped (legacy
	// single-connection dynamics where only Bandwidth binds).
	ConnMbps float64
	// SenderBufCap and ReceiverBufCap are staging buffer capacities
	// in Mb (the tmpfs staging directories of the DTNs).
	SenderBufCap   float64
	ReceiverBufCap float64
	// ChunkMb is the volume moved by one task execution. Defaults to 8 Mb
	// (1 MB) if zero.
	ChunkMb float64
	// StepDuration is the simulated wall time per Step in seconds.
	// Defaults to 1.
	StepDuration float64
	// RetryDelay is the ϵ re-queue delay for blocked tasks in seconds.
	// Defaults to 2 ms.
	RetryDelay float64
	// Jitter, if positive, perturbs each task's effective rate uniformly
	// by ±Jitter fraction, using the Rand source. This roughens the
	// simulator during training so the policy does not overfit to exact
	// dynamics. Typical value: 0.05.
	Jitter float64
	// Rand is the randomness source for jitter. May be nil when Jitter
	// is zero.
	Rand *rand.Rand
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ChunkMb <= 0 {
		out.ChunkMb = 8
	}
	if out.StepDuration <= 0 {
		out.StepDuration = 1
	}
	if out.RetryDelay <= 0 {
		out.RetryDelay = 0.002
	}
	return out
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for s := Read; s <= Write; s++ {
		if c.TPT[s] <= 0 {
			return fmt.Errorf("sim: TPT[%s] must be positive, got %v", s, c.TPT[s])
		}
		if c.Bandwidth[s] < 0 {
			return fmt.Errorf("sim: Bandwidth[%s] must be non-negative, got %v", s, c.Bandwidth[s])
		}
	}
	if c.SenderBufCap <= 0 || c.ReceiverBufCap <= 0 {
		return fmt.Errorf("sim: buffer capacities must be positive (sender %v, receiver %v)",
			c.SenderBufCap, c.ReceiverBufCap)
	}
	return nil
}

// Result reports one simulated step.
type Result struct {
	// Throughput holds the achieved per-stage rates in Mbps, normalized
	// by the step duration.
	Throughput [3]float64
	// SenderBufUsed and ReceiverBufUsed are staging occupancies in Mb at
	// the end of the step.
	SenderBufUsed   float64
	ReceiverBufUsed float64
	// SenderBufFree and ReceiverBufFree are the corresponding free space
	// amounts — the key state signal of §IV-D-1.
	SenderBufFree   float64
	ReceiverBufFree float64
}

// Simulator is the event-driven dynamics model. It is not safe for
// concurrent use; each training goroutine should own its own instance.
type Simulator struct {
	cfg Config

	senderBuf   float64
	receiverBuf float64

	busy  eventHeap // chunk-completion events
	ready eventRing // start-of-step tasks and blocked retries
}

// New creates a simulator from cfg. It panics if cfg is invalid; call
// cfg.Validate first when handling untrusted input.
func New(cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulator{cfg: cfg.withDefaults()}
}

// Config returns the simulator's (defaulted) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Reset empties both staging buffers.
func (s *Simulator) Reset() {
	s.senderBuf = 0
	s.receiverBuf = 0
}

// SetBuffers overrides the staging occupancies, clamping to capacity.
// Used to randomize initial conditions between training episodes.
func (s *Simulator) SetBuffers(sender, receiver float64) {
	s.senderBuf = max(0, min(sender, s.cfg.SenderBufCap))
	s.receiverBuf = max(0, min(receiver, s.cfg.ReceiverBufCap))
}

// Buffers returns the current sender and receiver staging occupancies.
func (s *Simulator) Buffers() (sender, receiver float64) {
	return s.senderBuf, s.receiverBuf
}

// SetBandwidth changes a stage's aggregate capacity at runtime, emulating
// background traffic or a sysadmin re-throttle mid-transfer. Zero means
// unlimited.
func (s *Simulator) SetBandwidth(st Stage, mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	s.cfg.Bandwidth[st] = mbps
}

// SetConnMbps changes the per-connection network ceiling at runtime.
// Zero disables the cap.
func (s *Simulator) SetConnMbps(mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	s.cfg.ConnMbps = mbps
}

// SetTPT changes a stage's per-thread throughput at runtime (e.g. I/O
// contention from a co-located job). The value must be positive.
func (s *Simulator) SetTPT(st Stage, mbps float64) {
	if mbps > 0 {
		s.cfg.TPT[st] = mbps
	}
}

// event is one emulated thread's pending task execution. seq numbers
// events in scheduling order and breaks time ties, so (t, seq) is a
// strict total order.
type event struct {
	t     float64
	seq   int
	stage Stage
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under (t, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// eventRing is a FIFO of events pushed in (t, seq) order, so its head
// is always its minimum.
type eventRing struct {
	buf     []event
	head, n int
}

// reset empties the ring and sizes it for capacity pending events.
func (r *eventRing) reset(capacity int) {
	if len(r.buf) < capacity {
		r.buf = make([]event, capacity)
	}
	r.head, r.n = 0, 0
}

func (r *eventRing) push(e event) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

func (r *eventRing) pop() event {
	e := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return e
}

// effectiveRate returns a single thread's rate for the stage given n
// concurrent threads: near-linear scaling capped by the aggregate
// bandwidth share and, for the network stage, by the striped
// per-connection ceiling (conns·ConnMbps split across the n streams).
func (s *Simulator) effectiveRate(st Stage, n, conns int) float64 {
	r := s.cfg.TPT[st]
	if bw := s.cfg.Bandwidth[st]; bw > 0 && n > 0 {
		r = min(r, bw/float64(n))
	}
	if st == Network && s.cfg.ConnMbps > 0 && n > 0 && conns > 0 {
		r = min(r, s.cfg.ConnMbps*float64(conns)/float64(n))
	}
	if s.cfg.Jitter > 0 && s.cfg.Rand != nil {
		r *= 1 + s.cfg.Jitter*(2*s.cfg.Rand.Float64()-1)
	}
	return r
}

// Step simulates cfg.StepDuration seconds of transfer with the given
// concurrency tuple ⟨n_r, n_c, n_s, n_w⟩ (GET_UTILITY of Algorithm 1,
// minus the reward computation, which belongs to the environment): nr
// read threads, nc data connections carrying ns streams each (so the
// network stage runs nc·ns workers whose aggregate rate is additionally
// capped at nc·ConnMbps), and nw write threads. Counts are clamped to
// be non-negative. Buffer state persists across steps.
func (s *Simulator) Step(nr, nc, ns, nw int) Result {
	cfg := &s.cfg
	tEnd := cfg.StepDuration
	var moved [3]float64

	nc = max(0, nc)
	nn := nc * max(0, ns)

	counts := [3]int{max(0, nr), nn, max(0, nw)}
	s.busy = s.busy[:0]
	s.ready.reset(counts[Read] + counts[Network] + counts[Write])
	seq := 0
	for st := Read; st <= Write; st++ {
		for i := 0; i < counts[st]; i++ {
			s.ready.push(event{t: 0, seq: seq, stage: st})
			seq++
		}
	}
	const tiny = 1e-9

	for s.ready.n > 0 || len(s.busy) > 0 {
		var ev event
		if s.ready.n > 0 && (len(s.busy) == 0 || s.ready.buf[s.ready.head].before(s.busy[0])) {
			ev = s.ready.pop()
		} else {
			ev = s.busy.pop()
		}
		t := ev.t

		// TASK(t, threadType): attempt one chunk move.
		var avail float64
		switch ev.stage {
		case Read:
			avail = cfg.SenderBufCap - s.senderBuf
		case Network:
			avail = min(s.senderBuf, cfg.ReceiverBufCap-s.receiverBuf)
		case Write:
			avail = s.receiverBuf
		}
		if avail <= tiny {
			// Blocked: retry after ϵ.
			if tNext := t + cfg.RetryDelay; tNext < tEnd {
				s.ready.push(event{t: tNext, seq: seq, stage: ev.stage})
				seq++
			}
			continue
		}
		chunk := min(cfg.ChunkMb, avail)
		rate := s.effectiveRate(ev.stage, counts[ev.stage], nc)
		dTask := chunk / rate
		if t+dTask > tEnd {
			// Partial completion at the step boundary.
			frac := (tEnd - t) / dTask
			chunk *= frac
			dTask = tEnd - t
		}
		moved[ev.stage] += chunk
		switch ev.stage {
		case Read:
			s.senderBuf = min(cfg.SenderBufCap, s.senderBuf+chunk)
		case Network:
			s.senderBuf = max(0, s.senderBuf-chunk)
			s.receiverBuf = min(cfg.ReceiverBufCap, s.receiverBuf+chunk)
		case Write:
			s.receiverBuf = max(0, s.receiverBuf-chunk)
		}
		if tNext := t + dTask + tiny; tNext < tEnd {
			s.busy.push(event{t: tNext, seq: seq, stage: ev.stage})
			seq++
		}
	}

	res := Result{
		SenderBufUsed:   s.senderBuf,
		ReceiverBufUsed: s.receiverBuf,
		SenderBufFree:   cfg.SenderBufCap - s.senderBuf,
		ReceiverBufFree: cfg.ReceiverBufCap - s.receiverBuf,
	}
	for st := Read; st <= Write; st++ {
		res.Throughput[st] = moved[st] / tEnd
	}
	return res
}
