package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// baseConfig mirrors the paper's read-bottleneck scenario (§V-B-1):
// per-stream caps 80/160/200 Mbps on a 1 Gbps link.
func baseConfig() Config {
	return Config{
		TPT:            [3]float64{80, 160, 200},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := baseConfig()
	bad.TPT[Network] = 0
	if bad.Validate() == nil {
		t.Fatal("zero TPT should fail validation")
	}
	bad = baseConfig()
	bad.SenderBufCap = 0
	if bad.Validate() == nil {
		t.Fatal("zero buffer capacity should fail validation")
	}
	bad = baseConfig()
	bad.Bandwidth[Read] = -1
	if bad.Validate() == nil {
		t.Fatal("negative bandwidth should fail validation")
	}
}

func TestStageString(t *testing.T) {
	if Read.String() != "read" || Network.String() != "network" || Write.String() != "write" {
		t.Fatal("stage names wrong")
	}
	if Stage(9).String() != "stage(9)" {
		t.Fatal("unknown stage formatting")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestSingleReadThreadApproachesTPT(t *testing.T) {
	s := New(baseConfig())
	r := s.Step(1, 1, 0, 0)
	// One read thread at 80 Mbps into an empty 500 Mb buffer: ~80 Mb moved.
	if r.Throughput[Read] < 75 || r.Throughput[Read] > 85 {
		t.Fatalf("read throughput %v want ≈80", r.Throughput[Read])
	}
	if r.Throughput[Network] != 0 || r.Throughput[Write] != 0 {
		t.Fatalf("idle stages moved data: %v", r.Throughput)
	}
	if math.Abs(r.SenderBufUsed-r.Throughput[Read]) > 1e-6 {
		t.Fatalf("buffer occupancy %v != moved %v", r.SenderBufUsed, r.Throughput[Read])
	}
}

func TestNearLinearScalingUpToBandwidth(t *testing.T) {
	cfg := baseConfig()
	cfg.SenderBufCap = 1e9 // never fills
	s := New(cfg)
	r4 := s.Step(4, 1, 0, 0)
	if r4.Throughput[Read] < 300 || r4.Throughput[Read] > 330 {
		t.Fatalf("4 threads: %v want ≈320", r4.Throughput[Read])
	}
	s.Reset()
	// 20 threads × 80 Mbps = 1600 > 1000 Mbps cap: aggregate should cap.
	r20 := s.Step(20, 1, 0, 0)
	if r20.Throughput[Read] < 950 || r20.Throughput[Read] > 1050 {
		t.Fatalf("20 threads: %v want ≈1000 (bandwidth cap)", r20.Throughput[Read])
	}
}

func TestReadsBlockWhenSenderBufferFull(t *testing.T) {
	cfg := baseConfig()
	cfg.SenderBufCap = 40 // 5 chunks
	s := New(cfg)
	r := s.Step(10, 1, 0, 0)
	if r.SenderBufUsed != 40 {
		t.Fatalf("sender buffer should be full: %v", r.SenderBufUsed)
	}
	if r.Throughput[Read] > 41 {
		t.Fatalf("reads should stall at capacity, moved %v Mb", r.Throughput[Read])
	}
	// A second step moves nothing: buffer still full.
	r2 := s.Step(10, 1, 0, 0)
	if r2.Throughput[Read] > 1e-9 {
		t.Fatalf("full buffer still admitted %v Mb", r2.Throughput[Read])
	}
}

func TestNetworkNeedsSenderDataAndReceiverSpace(t *testing.T) {
	s := New(baseConfig())
	// Empty sender buffer: network moves nothing.
	r := s.Step(0, 1, 5, 0)
	if r.Throughput[Network] != 0 {
		t.Fatalf("network moved %v from empty sender buffer", r.Throughput[Network])
	}
	// Fill sender buffer, then network can move.
	s.SetBuffers(400, 0)
	r = s.Step(0, 1, 2, 0)
	if r.Throughput[Network] < 300 {
		t.Fatalf("network throughput %v want ≈320", r.Throughput[Network])
	}
	// Full receiver buffer: network blocked.
	s.SetBuffers(400, 500)
	r = s.Step(0, 1, 2, 0)
	if r.Throughput[Network] > 1e-9 {
		t.Fatalf("network moved %v into full receiver buffer", r.Throughput[Network])
	}
}

func TestWriteDrainsReceiverBuffer(t *testing.T) {
	s := New(baseConfig())
	s.SetBuffers(0, 300)
	r := s.Step(0, 1, 0, 1)
	if r.Throughput[Write] < 190 || r.Throughput[Write] > 210 {
		t.Fatalf("write throughput %v want ≈200", r.Throughput[Write])
	}
	if math.Abs(r.ReceiverBufUsed-(300-r.Throughput[Write])) > 1e-6 {
		t.Fatalf("receiver occupancy inconsistent: %v", r.ReceiverBufUsed)
	}
}

func TestPipelineSteadyStateMatchesBottleneck(t *testing.T) {
	// Optimal counts for the read-bottleneck scenario: 13/7/5 (paper §V-B-1)
	// → all stages ≈1 Gbps... actually 13×80=1040→cap 1000, 7×160=1120→1000,
	// 5×200=1000. End-to-end should approach 1000 Mbps after warm-up.
	s := New(baseConfig())
	var last Result
	for i := 0; i < 12; i++ {
		last = s.Step(13, 1, 7, 5)
	}
	if last.Throughput[Write] < 850 {
		t.Fatalf("steady-state write throughput %v want ≳900", last.Throughput[Write])
	}
	if last.Throughput[Network] < 850 {
		t.Fatalf("steady-state network throughput %v", last.Throughput[Network])
	}
}

func TestBottleneckDeterminesEndToEnd(t *testing.T) {
	// Network is the bottleneck: caps 205/75/195 with optimal 5/14/5
	// (paper's network-bottleneck scenario). With fewer network threads
	// the write stage can only see what the network delivers.
	cfg := Config{
		TPT:            [3]float64{205, 75, 195},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	}
	s := New(cfg)
	var last Result
	for i := 0; i < 12; i++ {
		last = s.Step(5, 1, 4, 5) // under-provisioned network: 4×75=300
	}
	if last.Throughput[Write] > 360 {
		t.Fatalf("write %v should be limited by network ≈300", last.Throughput[Write])
	}
	s.Reset()
	for i := 0; i < 12; i++ {
		last = s.Step(5, 1, 14, 5) // 14×75=1050 → cap 1000
	}
	if last.Throughput[Write] < 800 {
		t.Fatalf("write %v should approach 1000 with enough network threads", last.Throughput[Write])
	}
}

func TestZeroThreadsMoveNothing(t *testing.T) {
	s := New(baseConfig())
	r := s.Step(0, 1, 0, 0)
	if r.Throughput[Read] != 0 || r.Throughput[Network] != 0 || r.Throughput[Write] != 0 {
		t.Fatalf("no threads but throughput %v", r.Throughput)
	}
	// Negative counts are clamped to zero.
	r = s.Step(-3, 1, -1, -2)
	if r.Throughput[Read] != 0 {
		t.Fatal("negative thread counts should clamp to zero")
	}
}

func TestBufferStatePersistsAcrossSteps(t *testing.T) {
	s := New(baseConfig())
	s.Step(5, 1, 0, 0)
	sender1, _ := s.Buffers()
	s.Step(0, 1, 0, 0)
	sender2, _ := s.Buffers()
	if sender1 != sender2 {
		t.Fatalf("buffer changed with no threads: %v → %v", sender1, sender2)
	}
	s.Reset()
	sr, rr := s.Buffers()
	if sr != 0 || rr != 0 {
		t.Fatal("Reset did not clear buffers")
	}
}

func TestSetBuffersClamps(t *testing.T) {
	s := New(baseConfig())
	s.SetBuffers(1e9, -5)
	sr, rr := s.Buffers()
	if sr != 500 || rr != 0 {
		t.Fatalf("SetBuffers clamp broken: %v %v", sr, rr)
	}
}

func TestDeterminismWithoutJitter(t *testing.T) {
	a, b := New(baseConfig()), New(baseConfig())
	for i := 0; i < 5; i++ {
		ra := a.Step(7, 1, 5, 3)
		rb := b.Step(7, 1, 5, 3)
		if ra != rb {
			t.Fatalf("step %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestJitterPerturbsButStaysClose(t *testing.T) {
	cfg := baseConfig()
	cfg.Jitter = 0.05
	cfg.Rand = rand.New(rand.NewSource(42))
	s := New(cfg)
	r := s.Step(1, 1, 0, 0)
	if r.Throughput[Read] < 70 || r.Throughput[Read] > 90 {
		t.Fatalf("jittered throughput %v wildly off 80", r.Throughput[Read])
	}
}

// Conservation property: across any step sequence, data read ≥ data
// transferred ≥ data written, and buffers account exactly for the
// differences.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(baseConfig())
		var read, net, wrote float64
		for i := 0; i < 6; i++ {
			r := s.Step(rng.Intn(15), 1+rng.Intn(4), rng.Intn(8), rng.Intn(15))
			read += r.Throughput[Read]
			net += r.Throughput[Network]
			wrote += r.Throughput[Write]
			sender, receiver := s.Buffers()
			if sender < -1e-6 || receiver < -1e-6 ||
				sender > 500+1e-6 || receiver > 500+1e-6 {
				return false
			}
			if math.Abs((read-net)-sender) > 1e-4 {
				return false
			}
			if math.Abs((net-wrote)-receiver) > 1e-4 {
				return false
			}
		}
		return read+1e-9 >= net && net+1e-9 >= wrote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity property: steady-state end-to-end throughput with counts
// (n,n,n) is non-decreasing in n up to the bandwidth cap region.
func TestMonotoneInConcurrency(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 8; n++ {
		s := New(baseConfig())
		var last Result
		for i := 0; i < 10; i++ {
			last = s.Step(n, 1, n, n)
		}
		if last.Throughput[Write] < prev-20 { // allow small event noise
			t.Fatalf("throughput dropped from %v to %v at n=%d", prev, last.Throughput[Write], n)
		}
		prev = last.Throughput[Write]
	}
}

func TestRuntimeMutators(t *testing.T) {
	cfg := baseConfig()
	cfg.SenderBufCap = 1e9
	s := New(cfg)
	r := s.Step(4, 1, 0, 0)
	if r.Throughput[Read] < 300 {
		t.Fatalf("baseline read %v", r.Throughput[Read])
	}
	// Halve the read per-thread rate: same threads, half the throughput.
	s.SetTPT(Read, 40)
	r = s.Step(4, 1, 0, 0)
	if r.Throughput[Read] > 200 {
		t.Fatalf("SetTPT not applied: %v", r.Throughput[Read])
	}
	// Cap the aggregate read bandwidth below the thread sum.
	s.SetTPT(Read, 80)
	s.SetBandwidth(Read, 100)
	r = s.Step(4, 1, 0, 0)
	if r.Throughput[Read] > 130 {
		t.Fatalf("SetBandwidth not applied: %v", r.Throughput[Read])
	}
	// Invalid mutations are ignored / clamped.
	s.SetTPT(Read, -5)
	s.SetBandwidth(Read, -1)
	if s.Config().TPT[Read] != 80 || s.Config().Bandwidth[Read] != 0 {
		t.Fatalf("invalid mutation handling: %+v", s.Config())
	}
}

// TestConnCeilingBindsNetwork exercises the v3 striping knob: with a
// 100 Mbps per-connection ceiling, network throughput is bounded by
// ConnMbps·conns no matter how many streams share each connection.
func TestConnCeilingBindsNetwork(t *testing.T) {
	cfg := Config{
		TPT:            [3]float64{200, 150, 200},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		ConnMbps:       100,
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	}
	s := New(cfg)
	// One connection, ten streams: 10×150=1500 per-stream, 1000 link cap,
	// but the single socket caps at 100 Mbps.
	s.SetBuffers(400, 0)
	r := s.Step(0, 1, 10, 0)
	if r.Throughput[Network] > 110 {
		t.Fatalf("1 conn × 10 streams moved %v, want ≤ ~100 (conn ceiling)", r.Throughput[Network])
	}
	// Ten connections, one stream each: the ceiling lifts to 1000.
	s.Reset()
	s.SetBuffers(500, 0)
	r = s.Step(0, 10, 1, 0)
	if r.Throughput[Network] < 400 {
		t.Fatalf("10 conns × 1 stream moved only %v", r.Throughput[Network])
	}
}

// TestConnCeilingZeroMeansUncapped checks the default: no ConnMbps, and
// conns×streams is just the total network concurrency.
func TestConnCeilingZeroMeansUncapped(t *testing.T) {
	a, b := New(baseConfig()), New(baseConfig())
	a.SetBuffers(400, 0)
	b.SetBuffers(400, 0)
	ra := a.Step(0, 1, 6, 0)
	rb := b.Step(0, 2, 3, 0)
	if math.Abs(ra.Throughput[Network]-rb.Throughput[Network]) > 1e-9 {
		t.Fatalf("uncapped: 1×6 (%v) should equal 2×3 (%v)", ra.Throughput[Network], rb.Throughput[Network])
	}
}

// TestStepAllocationFree guards the event loop's storage reuse: once a
// first call has sized the queues, a Step with jitter allocates nothing.
func TestStepAllocationFree(t *testing.T) {
	cfg := baseConfig()
	cfg.Jitter = 0.05
	cfg.Rand = rand.New(rand.NewSource(7))
	s := New(cfg)
	s.Step(13, 2, 7, 5)
	if n := testing.AllocsPerRun(100, func() { s.Step(13, 2, 7, 5) }); n != 0 {
		t.Fatalf("Step allocated %v times per call after warm-up, want 0", n)
	}
}

func BenchmarkStep(b *testing.B) {
	s := New(baseConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(13, 1, 7, 5)
	}
}
