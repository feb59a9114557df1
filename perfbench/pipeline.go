package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/experiments"
	"automdt/internal/fsim"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sim"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// Pipeline sizing (the paper's Fig. 2 end to end on the read-bottleneck
// testbed).
const (
	// probeSteps is the exploration length the quick experiments use.
	probeSteps = 300
	// trainEpisodes is the fixed training budget; early stopping is
	// disabled so every training run does the same number of episodes.
	trainEpisodes = 100
	// offlineSeed seeds the probe and the trainer. It is pinned rather
	// than derived from the workload seed: at a fixed budget, training
	// cost and reward depend on the trajectory the seed picks (2.1–6.5 s
	// and 0.14–0.87 of Rmax over training seeds 1–6 at 100 episodes), and
	// probe seeds split between two profiles that train differently, so
	// set-up time would measure the seed rather than the code. The
	// workload seed picks the shaped transfers' datasets.
	offlineSeed = 1
	// shapedBytes is the volume of each shaped transfer.
	shapedBytes = 256 << 20
)

// shapedConfig caps the loopback engine like the read-bottleneck
// testbed: per-thread read 80 Mbps, per-stream network 160, per-thread
// write 200, on a 1 Gbps link, starting from one thread per stage.
func shapedConfig(tb experiments.Testbed) transfer.Config {
	return transfer.Config{
		MaxThreads: tb.MaxThreads,
		Shaping: transfer.Shaping{
			ReadPerThreadMbps:  tb.Cfg.TPT[sim.Read],
			NetPerStreamMbps:   tb.Cfg.TPT[sim.Network],
			WritePerThreadMbps: tb.Cfg.TPT[sim.Write],
			LinkMbps:           tb.Bottleneck,
		},
	}
}

// trainOptions mirror the quick experiments' training options, with
// every default spelled out (so the traced trainer can rebuild
// core.Train's wiring from them) and a fixed episode budget.
func trainOptions(tb experiments.Testbed) core.Options {
	return core.Options{
		K:             env.DefaultK,
		MaxThreads:    tb.MaxThreads,
		SenderBufMb:   tb.Cfg.SenderBufCap,
		ReceiverBufMb: tb.Cfg.ReceiverBufCap,
		Net:           rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1},
		Train: rl.TrainConfig{
			Episodes:        trainEpisodes,
			StepsPerEpisode: 10,
			LR:              1e-3,
			UpdateEpochs:    4,
			StagnantLimit:   1 << 30,
			EntropyCoef:     0.01,
			OOBPenalty:      1.0,
		},
		Jitter:    0.05,
		RateDrift: 0.7,
		Seed:      offlineSeed,
	}
}

// explore runs the exploration phase against a fresh ground-truth
// simulator of the testbed and checks that the profile found the
// testbed's caps.
func explore(tb experiments.Testbed, seed int64, wrap func(probe.Runner) probe.Runner) (*probe.Profile, error) {
	var r probe.Runner = probe.SimRunner{Sim: sim.New(tb.Cfg)}
	if wrap != nil {
		r = wrap(r)
	}
	p, err := probe.Explore(r, rand.New(rand.NewSource(seed)), probe.Options{Steps: probeSteps, MaxThreads: tb.MaxThreads})
	if err != nil {
		return nil, fmt.Errorf("probe seed %d: %w", seed, err)
	}
	want := env.StageVec{env.StageRead: tb.Cfg.TPT[sim.Read], env.StageStreams: tb.Cfg.TPT[sim.Network], env.StageWrite: tb.Cfg.TPT[sim.Write]}
	for _, s := range []env.Stage{env.StageRead, env.StageStreams, env.StageWrite} {
		if !near(p.TPT[s], want[s]) {
			return nil, fmt.Errorf("probe seed %d: per-unit rate of %v is %.2f Mbps, testbed caps it at %.0f", seed, s, p.TPT[s], want[s])
		}
	}
	if !near(p.Bottleneck, tb.Bottleneck) {
		return nil, fmt.Errorf("probe seed %d: bottleneck %.1f Mbps, testbed has %.0f", seed, p.Bottleneck, tb.Bottleneck)
	}
	return p, nil
}

func near(got, want float64) bool { return got > 0.99*want && got < 1.01*want }

// rewardFrac is the best episode reward as a share of the episode-level
// maximum StepsPerEpisode·Rmax.
func rewardFrac(sys *core.System) float64 {
	return sys.TrainResult.BestReward / (float64(sys.Opts.Train.StepsPerEpisode) * sys.Profile.Rmax)
}

// shaped is what one shaped transfer took: wall and process CPU time
// of the transfer alone, and the verified bytes it delivered.
type shaped struct {
	wall  time.Duration
	cpu   float64
	bytes int64
}

// shapedTransfer moves a seeded mixed dataset through the shaped
// loopback engine under ctrl into a verifying sink and checks it. The
// sink checks each byte as it is written, so that check is part of the
// measured CPU time.
func shapedTransfer(cfg transfer.Config, seed int64, ctrl env.Controller) (shaped, error) {
	m := workload.Mixed(shapedBytes, 16<<20, 64<<20, rand.New(rand.NewSource(seed)))
	sink := fsim.NewSyntheticStore()
	sink.Verify = true
	c0, t0 := cpuSeconds(), time.Now()
	_, err := transfer.Loopback(context.Background(), cfg, m, fsim.NewSyntheticStore(), sink, ctrl)
	r := shaped{wall: time.Since(t0), cpu: cpuSeconds() - c0}
	if err != nil {
		return r, fmt.Errorf("shaped transfer: %w", err)
	}
	if errs := sink.Errors(); len(errs) > 0 {
		return r, fmt.Errorf("shaped transfer: %d verification errors, first: %v", len(errs), errs[0])
	}
	if got, want := sink.TotalWritten(), m.TotalBytes(); got != want {
		return r, fmt.Errorf("shaped transfer wrote %d of %d bytes", got, want)
	}
	r.bytes = m.TotalBytes()
	return r, nil
}

// runPipeline runs the paper's Fig. 2 pipeline on the read-bottleneck
// testbed. Set-up is the offline phase: explore the testbed, then train
// the agent at a fixed budget. A job is one shaped loopback transfer
// driven by the trained deterministic controller.
func runPipeline(o options) (*report, error) {
	tb := experiments.ReadBottleneck()
	opts := trainOptions(tb)
	cfg := shapedConfig(tb)
	rep := newReport()
	if o.trace {
		tracePipeline(o, tb, opts, cfg, rep)
		return rep, nil
	}

	// Set-up, five times. Same seeds, same reward curve: every training
	// run must reproduce the first successful one exactly. A failed run
	// counts as a failed op and the next one still runs.
	var sys *core.System
	setup := bestOf(5, func() (time.Duration, bool) {
		t0 := time.Now()
		s, err := offline(tb, opts)
		d := time.Since(t0)
		if err == nil && sys != nil && !slices.Equal(s.TrainResult.EpisodeRewards, sys.TrainResult.EpisodeRewards) {
			err = fmt.Errorf("training diverged from the first run's reward curve")
		}
		rep.op(err)
		if err == nil && sys == nil {
			sys = s
		}
		return d, err == nil
	})
	if sys == nil {
		// No trained controller to drive the transfers; the failed
		// set-up runs are already counted.
		return rep, nil
	}

	// Jobs: shaped transfers until the time budget is spent, at least
	// three.
	var st phaseStats
	var spent time.Duration
	for n := 0; n < 3 || spent.Seconds() < o.seconds; n++ {
		r, err := shapedTransfer(cfg, o.seed*31+int64(n), sys.DeterministicController())
		spent += r.wall
		rep.op(err)
		if err == nil {
			st.wall += r.wall.Seconds()
			st.cpu += r.cpu
			st.bytes += float64(r.bytes)
			st.lat.add(ms(r.wall))
		}
	}
	emitWindows(rep, []*phaseStats{&st}, fmt.Sprintf("one %d MiB shaped transfer", shapedBytes>>20))
	rep.set("setup_s", "s", setup, fmt.Sprintf("fastest of 5 probe.Explore + core.Train (%d episodes)", trainEpisodes))
	rep.set("peak_rss_MB", "MB", peakRSSMB(), "")
	fmt.Printf("policy_reward_frac %.6f, converged at episode %d\n", rewardFrac(sys), sys.TrainResult.ConvergedAt)
	return rep, nil
}

// offline is the offline phase: explore the testbed and train on the
// profile, both from the pinned offline seed.
func offline(tb experiments.Testbed, opts core.Options) (*core.System, error) {
	p, err := explore(tb, offlineSeed, nil)
	if err != nil {
		return nil, err
	}
	return core.Train(p, opts)
}

// tracePipeline runs the pipeline once untraced (core.Train) and once
// traced, with the probe runner, the training environment and the
// controller wrapped and the flight recorder on. The traced trainer
// rebuilds core.Train's wiring to hand rl.Agent.Train a wrapped
// environment; its reward curve must equal core.Train's exactly. A
// failed probe or training run counts as a failed op and ends the run
// early, since every later step needs its result.
func tracePipeline(o options, tb experiments.Testbed, opts core.Options, cfg transfer.Config, rep *report) {
	profile, err := explore(tb, offlineSeed, nil)
	rep.op(err)
	if err != nil {
		return
	}
	t0 := time.Now()
	plainSys, err := core.Train(profile, opts)
	plainTrain := time.Since(t0)
	rep.op(err)
	if err != nil {
		return
	}
	plainXfer, err := shapedTransfer(cfg, o.seed*31, plainSys.DeterministicController())
	rep.op(err)

	t := &tracer{}
	t.start(cfg)
	p2, err := explore(tb, offlineSeed, t.timedProbe)
	rep.op(err)
	if err != nil {
		return
	}
	if p2.Rmax != profile.Rmax || p2.TPT != profile.TPT || p2.B != profile.B || p2.NStar != profile.NStar {
		rep.fail(fmt.Errorf("same-path check: traced probe profile differs from the untraced one"))
	}
	sys, train, err := trainTraced(p2, opts, t)
	rep.op(err)
	if err != nil {
		return
	}
	if !slices.Equal(sys.TrainResult.EpisodeRewards, plainSys.TrainResult.EpisodeRewards) {
		rep.fail(fmt.Errorf("same-path check: traced trainer's reward curve differs from core.Train's"))
	}
	cfg.Hooks = t.sessionHooks()
	xfer, err := shapedTransfer(cfg, o.seed*31, t.wrapController(sys.DeterministicController()))
	rep.op(err)
	t.bytes = xfer.bytes
	t.ops = 1
	t.train, t.trainRes, t.rewardFrac, t.completion = train, sys.TrainResult, rewardFrac(sys), xfer.wall
	t.emit(rep)
	rep.set("trace_overhead_frac", "frac", (train+xfer.wall).Seconds()/(plainTrain+plainXfer.wall).Seconds()-1,
		"traced vs untraced training + shaped transfer time")
}

// trainTraced is core.Train with the simulator environment wrapped in a
// timing layer: the same simulator configuration, seeds and agent, so
// its result must match core.Train's.
func trainTraced(p *probe.Profile, opts core.Options, t *tracer) (*core.System, time.Duration, error) {
	cfg := p.SimConfig(opts.SenderBufMb, opts.ReceiverBufMb)
	cfg.Jitter = opts.Jitter
	cfg.Rand = rand.New(rand.NewSource(opts.Seed + 101))
	if err := cfg.Validate(); err != nil {
		return nil, 0, fmt.Errorf("probed simulator config: %w", err)
	}
	e := env.NewSimEnv(sim.New(cfg), rand.New(rand.NewSource(opts.Seed+202)))
	e.K = opts.K
	e.MaxThreadsN = opts.MaxThreads
	e.RateDrift = opts.RateDrift
	agent := rl.NewAgent(opts.Net, opts.Seed+303)
	tc := opts.Train
	tc.Rmax = p.Rmax
	tc.Seed = opts.Seed + 404
	t0 := time.Now()
	res := agent.Train(timedEnv{Environment: e, t: t}, tc)
	agent.RestoreBest()
	return &core.System{Profile: p, Agent: agent, TrainResult: res, Opts: opts}, time.Since(t0), nil
}
