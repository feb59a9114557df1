package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"automdt/internal/rl"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const rewardsGoldenPath = "testdata/train_rewards.txt"

// TestTrainRewardCurveGolden pins the bits of every EpisodeRewards entry
// of a short seeded probe→train run. The curve depends on every simulator
// step, every random draw and every network update, so any change to
// those dynamics fails here. Regenerate with
// `go test ./internal/core -run TestTrainRewardCurveGolden -update`
// only when the training trajectory is meant to change.
func TestTrainRewardCurveGolden(t *testing.T) {
	p := probeTestbed(t)
	opts := Options{
		MaxThreads: 16,
		Net:        rl.NetConfig{Hidden: 16, PolicyBlocks: 1, ValueBlocks: 1},
		Train: rl.TrainConfig{
			Episodes:      60,
			LR:            1e-3,
			UpdateEpochs:  2,
			StagnantLimit: 1 << 30,
		},
		Seed: 11,
	}
	sys, err := Train(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, r := range sys.TrainResult.EpisodeRewards {
		got = append(got, fmt.Sprintf("%d %016x", i, math.Float64bits(r)))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rewardsGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse x*y+z into one FMA, which
		// legitimately changes low-order bits.
		t.Skipf("golden recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile(rewardsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d episodes, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("episode reward diverged from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
