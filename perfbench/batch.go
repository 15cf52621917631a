package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
	"deltasched/internal/runner"
	"deltasched/internal/scenario"
)

// evaluated is one point of a batch: where it came from, what the
// runner returned, and when its Evaluate call ran (relative to the
// batch start).
type evaluated struct {
	run        int // index into the workload's scenario runs
	pt         scenario.Point
	res        scenario.Result
	start, end time.Duration
}

// class is the point's scheduler class for the scenario.eval_s split:
// bmux, fifo, edf or additive. Tandem points are classed by the analytic
// model they are bounded with; DRR falls back to the BMUX bound.
func (e evaluated) class(runs []scenarioRun) string {
	if sp, ok := e.pt.Data.(experiments.SweepPoint); ok {
		switch {
		case sp.Sched == experiments.FIFO:
			return "fifo"
		case sp.Sched == experiments.BMUXAdditive:
			return "additive"
		case sp.Sched == experiments.BMUX:
			return "bmux"
		default:
			return "edf"
		}
	}
	switch runs[e.run].cfg.Str("sched", "fifo") {
	case "edf":
		return "edf"
	case "fifo":
		return "fifo"
	default:
		return "bmux"
	}
}

// batch is the outcome of one closed batch: every scenario run of the
// workload, in order, through one runner.App.
type batch struct {
	t0      time.Time     // when the batch started
	setup   time.Duration // batch start until the first point reached a worker
	wall    time.Duration
	cpu     time.Duration
	rssMB   float64 // resident-set peak of the batch
	points  []evaluated
	counts  map[string]int64 // optimizer probe counts of this batch
	failed  []string         // scenario runs that returned an error
	lostPts int              // points of failed scenario runs
}

// errSetupProbe stops a set-up probe at its first point.
var errSetupProbe = errors.New("perfbench: set-up probe")

// timedScenario wraps a registered scenario so the benchmark sees every
// point the runner hands to a worker, with its start and end time. The
// wrapper adds two clock reads per point; it is present in every pass.
type timedScenario struct {
	scenario.Scenario
	run   int
	rec   *batchRecorder
	probe bool // set-up probe: record the first hand-off, evaluate nothing
}

// ptKey names a point within a batch: tandem runs share point IDs
// across configurations, so the scenario run index is part of the key.
type ptKey struct {
	run int
	id  string
}

type batchRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	first time.Duration
	seen  bool
	pts   map[ptKey]evaluated
}

func (t timedScenario) Evaluate(ctx context.Context, cfg scenario.Config, pt scenario.Point, be scenario.Backend) (scenario.Result, error) {
	start := time.Since(t.rec.t0)
	t.rec.mu.Lock()
	if !t.rec.seen {
		t.rec.seen, t.rec.first = true, start
	}
	t.rec.mu.Unlock()
	if t.probe {
		return scenario.Result{}, errSetupProbe
	}
	res, err := t.Scenario.Evaluate(ctx, cfg, pt, be)
	end := time.Since(t.rec.t0)
	t.rec.mu.Lock()
	t.rec.pts[ptKey{t.run, pt.ID}] = evaluated{run: t.run, pt: pt, start: start, end: end}
	t.rec.mu.Unlock()
	return res, err
}

// runBatch runs every scenario of the workload through one runner.App,
// the way a CLI process does. extra carries additional runner flags
// (the traced pass turns on the span tracer). With probe set, each
// scenario run stops at its first point: only the set-up is timed.
func runBatch(w workload, seed int64, extra []string, probe bool) (batch, error) {
	runs := w.runs(seed)
	rec := &batchRecorder{pts: map[ptKey]evaluated{}}
	var b batch
	if !probe {
		// Not before set-up probes: returning the heap to the kernel
		// would make every probe fault its pages back in.
		resetPeakRSS()
	}
	before := benchProbe.snapshot()
	cpu0 := cpuTime()
	rec.t0 = time.Now()

	app := runner.New("perfbench", w.backend)
	app.FS.SetOutput(io.Discard)
	args := append(append([]string{"-backend", w.backend.String()}, w.flags...), extra...)
	err := app.Main(args, func(a *runner.App) error {
		// Main installs the runner's own optimizer probe when telemetry
		// is on; the benchmark's counts must cover every pass.
		core.SetOptProbe(benchProbe.probe)
		for i, sr := range runs {
			sc, err := scenario.Get(sr.name)
			if err != nil {
				return err
			}
			ts := timedScenario{Scenario: sc, run: i, rec: rec, probe: probe}
			pts, rs, err := a.Run(ts, sr.cfg, runner.RunOpt{})
			if probe {
				if err != nil && !errors.Is(err, errSetupProbe) {
					return err
				}
				return nil
			}
			if err != nil {
				// A failed scenario run is an output failure, not a
				// benchmark failure: count its points and go on.
				b.failed = append(b.failed, fmt.Sprintf("%s: %v", sr.name, err))
				if all, perr := sc.Points(sr.cfg); perr == nil {
					b.lostPts += len(all)
				} else {
					b.lostPts++
				}
				continue
			}
			for j, pt := range pts {
				e := rec.pts[ptKey{i, pt.ID}]
				e.run, e.pt, e.res = i, pt, rs[j]
				// Detail holds the point's full delay summaries. The
				// benchmark reads only Analytic and Sim, and summaries kept
				// alive from earlier batches would inflate later batches'
				// memory.
				e.res.Detail = nil
				b.points = append(b.points, e)
			}
		}
		return nil
	})
	b.t0, b.wall = rec.t0, time.Since(rec.t0)
	b.cpu = cpuTime() - cpu0
	b.rssMB = peakRSSMB()
	b.counts = benchProbe.since(before)
	if err != nil {
		return b, err
	}
	if !rec.seen {
		return b, errors.New("no point reached a worker")
	}
	b.setup = rec.first
	return b, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the kernel and restarts its
// peak-RSS mark, so the next batch's peak is its own rather than the
// largest of the run so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Without clear_refs (older kernels) the peak is the process's.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set peak since the last resetPeakRSS, in
// MiB: VmHWM of /proc/self/status, else the process peak from getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
