package sim

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const stepGoldenPath = "testdata/step_golden.txt"

// goldenScenarios are the configurations the step golden covers: the
// paper's read bottleneck, a striped network with a per-connection
// ceiling, tiny buffers that sit full or empty, and a short step with a
// fast retry clock.
func goldenScenarios() []Config {
	rb := baseConfig()
	striped := Config{
		TPT:            [3]float64{200, 150, 200},
		Bandwidth:      [3]float64{1000, 1000, 0},
		ConnMbps:       100,
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	}
	tight := Config{
		TPT:            [3]float64{205, 75, 195},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		SenderBufCap:   24,
		ReceiverBufCap: 16,
		ChunkMb:        8,
	}
	short := Config{
		TPT:            [3]float64{120, 90, 60},
		Bandwidth:      [3]float64{0, 800, 900},
		ConnMbps:       250,
		SenderBufCap:   300,
		ReceiverBufCap: 200,
		ChunkMb:        4,
		StepDuration:   0.5,
		RetryDelay:     0.001,
	}
	return []Config{rb, striped, tight, short}
}

// goldenSteps runs 500 seeded, jittered steps per scenario with random
// ⟨n_r, n_c, n_s, n_w⟩ (zero counts included) and occasional jumps of
// the buffers to full or empty, returning one line per step: the inputs
// followed by the IEEE-754 bits of every Result field.
func goldenSteps() []string {
	var out []string
	for i, cfg := range goldenScenarios() {
		cfg.Jitter = 0.05
		cfg.Rand = rand.New(rand.NewSource(int64(1000 + i)))
		s := New(cfg)
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		for k := 0; k < 500; k++ {
			switch rng.Intn(20) {
			case 0:
				s.SetBuffers(cfg.SenderBufCap, cfg.ReceiverBufCap)
			case 1:
				s.SetBuffers(0, 0)
			case 2:
				s.SetBuffers(cfg.SenderBufCap, 0)
			case 3:
				s.SetBuffers(0, cfg.ReceiverBufCap)
			}
			nr, nc, ns, nw := rng.Intn(17), rng.Intn(5), rng.Intn(9), rng.Intn(17)
			r := s.Step(nr, nc, ns, nw)
			var b strings.Builder
			fmt.Fprintf(&b, "%d %d %d %d %d %d", i, k, nr, nc, ns, nw)
			for _, v := range []float64{
				r.Throughput[Read], r.Throughput[Network], r.Throughput[Write],
				r.SenderBufUsed, r.ReceiverBufUsed, r.SenderBufFree, r.ReceiverBufFree,
			} {
				fmt.Fprintf(&b, " %016x", math.Float64bits(v))
			}
			out = append(out, b.String())
		}
	}
	return out
}

// TestStepGolden pins Step bit for bit: any change to the event order,
// the jitter draws or the float arithmetic shows up as a differing line.
// Regenerate with `go test ./internal/sim -run TestStepGolden -update`
// only when the dynamics are meant to change.
func TestStepGolden(t *testing.T) {
	got := goldenSteps()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse x*y+z into one FMA, which
		// legitimately changes low-order bits.
		t.Skipf("golden recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile(stepGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d steps, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d diverged from golden:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
