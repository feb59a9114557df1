package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/transfer"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// Each bulk session moves bulkFiles seeded files of 24–40 MiB that
// always add up to bulkBytes, so the work of a session does not depend
// on the seed: big enough that the per-byte data plane dominates, small
// enough that generating and verifying them stays cheap.
const (
	bulkFiles = 4
	bulkBytes = 128 << 20
)

// bulkConfig is the engine configuration of every bulk session: defaults
// (checksums on, kio auto, no shaping, no controller) with two workers
// per stage, one per CPU of the 2-CPU machine it was sized on. A session
// takes about 0.1 s, so the probe tick is shortened from 250 ms to 50 ms
// to give the traced run staging-occupancy samples; with no controller
// the tick only records progress.
func bulkConfig() transfer.Config {
	return transfer.Config{InitialThreads: 2, ProbeInterval: 50 * time.Millisecond}
}

// runBulk moves seeded large files between two directory stores, one
// transfer.Loopback session at a time, for the run's time budget. Every
// destination file is byte-compared with its source outside the timed
// region and removed before the next session, so dirty pages are
// dropped before writeback can reach the disk.
func runBulk(o options) (*report, error) {
	dir := filepath.Join(o.workdir, "bulk")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srcDir := filepath.Join(dir, "src")
	m, err := writeBulkSources(srcDir, o.seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	src, err := fsim.NewDirStore(srcDir)
	if err != nil {
		return nil, err
	}
	b := &bulkRun{dir: dir, srcDir: srcDir, src: src, manifest: m}
	rep := newReport()

	if !o.trace {
		// Set-up: receiver listen plus a warm-up session that fills the
		// buffer arena, seven times.
		setup := bestOf(7, func() (time.Duration, bool) {
			d, _, err := b.session(m, bulkConfig(), nil)
			rep.op(err)
			return d, err == nil
		})
		ws := windows(o.seconds, func(budget float64, st *phaseStats) {
			b.loop(budget, rep, st, bulkConfig(), nil)
		})
		emitWindows(rep, ws, fmt.Sprintf("one Loopback session of %d files", bulkFiles))
		rep.set("setup_s", "s", setup, "fastest of 7 listen + warm-up sessions")
		rep.set("peak_rss_MB", "MB", peakRSSMB(), "")
		return rep, nil
	}

	// Traced run: an untraced half, then the same loop with the stores
	// wrapped, session hooks set and the flight recorder on.
	_, _, err = b.session(m, bulkConfig(), nil)
	rep.op(err)
	var plain phaseStats
	io0 := wire.IOOps()
	b.loop(o.seconds/2, rep, &plain, bulkConfig(), nil)
	plainIO := ratio(float64(wire.IOOps()-io0), plain.bytes/1e6)

	t := &tracer{}
	wsrc, err := newTimedStore(src, t)
	if err != nil {
		return nil, err
	}
	b.src = wsrc
	var traced phaseStats
	t.start(bulkConfig())
	b.loop(o.seconds/2, rep, &traced, bulkConfig(), t)
	t.bytes = int64(traced.bytes)
	t.ops = int64(traced.lat.n())
	t.emit(rep)
	tracedIO := rep.metrics["wire.ioops_per_MB"].Value
	if d := tracedIO/plainIO - 1; d > ioopsJitter || d < -ioopsJitter {
		rep.fail(fmt.Errorf("same-path check: traced wire.ioops_per_MB %.3f vs untraced %.3f", tracedIO, plainIO))
	}
	rep.set("trace_overhead_frac", "frac", traced.lat.pct(0.5)/plain.lat.pct(0.5)-1, "traced vs untraced median session time")
	return rep, nil
}

// ioopsJitter is how far the traced run's data-plane operations per MB
// may stray from the untraced run's: the engine sizes its syscall
// batches from the staging backlog, so the count is not exact.
const ioopsJitter = 0.10

type bulkRun struct {
	dir, srcDir string
	src         fsim.Store
	manifest    workload.Manifest
	n           int
}

// loop runs sessions until budget seconds of loop time have passed.
func (b *bulkRun) loop(budget float64, rep *report, st *phaseStats, cfg transfer.Config, t *tracer) {
	start := time.Now()
	for time.Since(start).Seconds() < budget {
		d, cpu, err := b.session(b.manifest, cfg, t)
		rep.op(err)
		if err == nil {
			st.lat.add(d.Seconds() * 1e3)
			st.wall += d.Seconds()
			st.cpu += cpu
			st.bytes += float64(b.manifest.TotalBytes())
		}
	}
}

// session moves m into a fresh destination directory, verifies it
// byte for byte and removes it. The returned wall time and process CPU
// time cover only the transfer, not the verification or the removal.
func (b *bulkRun) session(m workload.Manifest, cfg transfer.Config, t *tracer) (time.Duration, float64, error) {
	b.n++
	dstDir := filepath.Join(b.dir, fmt.Sprintf("dst-%d", b.n))
	defer os.RemoveAll(dstDir)
	d, err := fsim.NewDirStore(dstDir)
	if err != nil {
		return 0, 0, err
	}
	var dst fsim.Store = d
	if t != nil {
		if dst, err = newTimedStore(d, t); err != nil {
			return 0, 0, err
		}
		cfg.Hooks = t.sessionHooks()
	}
	c0, t0 := cpuSeconds(), time.Now()
	_, err = transfer.Loopback(context.Background(), cfg, m, b.src, dst, nil)
	el, cpu := time.Since(t0), cpuSeconds()-c0
	if err != nil {
		return 0, 0, fmt.Errorf("bulk session %d: %w", b.n, err)
	}
	for _, f := range m {
		if err := sameFile(filepath.Join(b.srcDir, f.Name), filepath.Join(dstDir, f.Name)); err != nil {
			return 0, 0, fmt.Errorf("bulk session %d: %w", b.n, err)
		}
	}
	return el, cpu, nil
}

// writeBulkSources writes the seeded source files and syncs them, so
// their writeback cannot overlap the timed sessions.
func writeBulkSources(dir string, seed int64) (workload.Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0xb01c))
	var m workload.Manifest
	buf := make([]byte, 1<<20)
	var skew int64
	for i := 0; i < bulkFiles; i++ {
		// Files pair up around the mean size: +skew, then -skew.
		if i%2 == 0 {
			skew = rng.Int64N(8<<20 + 1)
		} else {
			skew = -skew
		}
		size := int64(bulkBytes/bulkFiles) + skew
		name := fmt.Sprintf("bulk-%02d.dat", i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for left := size; left > 0; {
			n := min(left, int64(len(buf)))
			for j := 0; j < int(n); j += 8 {
				v := rng.Uint64()
				for k := 0; k < 8 && j+k < int(n); k++ {
					buf[j+k] = byte(v >> (8 * k))
				}
			}
			if _, err := f.Write(buf[:n]); err != nil {
				f.Close()
				return nil, err
			}
			left -= n
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		m = append(m, workload.File{Name: name, Size: size})
	}
	return m, nil
}

// sameFile byte-compares two files.
func sameFile(a, b string) error {
	fa, err := os.Open(a)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return err
	}
	defer fb.Close()
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for off := int64(0); ; {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return fmt.Errorf("%s differs from its source near offset %d", filepath.Base(b), off)
		}
		off += int64(na)
		if ea == io.EOF || ea == io.ErrUnexpectedEOF {
			if eb != ea {
				return fmt.Errorf("%s has a different length than its source", filepath.Base(b))
			}
			return nil
		}
		if ea != nil {
			return ea
		}
		if eb != nil {
			return eb
		}
	}
}
