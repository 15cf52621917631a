package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
)

// evalClasses are the scheduler classes of the scenario.eval_s split.
var evalClasses = []string{"bmux", "fifo", "edf", "additive"}

// tracedRun gives the per-layer split of a workload. Untraced and
// traced runner passes alternate while another pair fits the window; the
// traced pass turns on the program's span tracer, and the wall-time
// difference of the pair is the tracing overhead. The runner and
// scenario figures come from the untraced passes. Then the benchmark
// replays the first untraced pass layer by layer (see replay.go) and
// times the analytic kernels on the workload's winning configurations.
func tracedRun(w workload, env benchEnv) (result, error) {
	runs := w.runs(env.seed)
	goldens, err := loadGoldens(env.goldens, runs)
	if err != nil {
		return result{}, err
	}
	spans := filepath.Join(env.outDir, "perfbench-spans-"+w.name+".json")
	// The two passes of a pair run at different times, so each wall is
	// brought to the reference host speed (speed.go) before they are
	// compared.
	speed := startSpeedLog()
	defer speed.Stop()
	scaled := func(b batch) float64 { return speed.adjust(b.t0, b.t0.Add(b.wall), b.wall) }
	var t tally
	var us []batch
	var overhead []float64
	var pair time.Duration // wall of the last untraced and traced pass
	start := time.Now()
	for len(us) == 0 || fits(start, pair, env.window) {
		// Alternate which pass goes first, so warm-up effects do not
		// masquerade as tracing overhead.
		var u, tr batch
		for _, traced := range []bool{len(us)%2 == 1, len(us)%2 == 0} {
			if !traced {
				u, err = runBatch(w, env.seed, nil, false)
			} else {
				tr, err = runBatch(w, env.seed, []string{"-tracefile", spans}, false)
			}
			if err != nil {
				return result{}, err
			}
		}
		t.add(u, checkBatch(u, runs, goldens))
		t.add(tr, checkBatch(tr, runs, goldens))
		if outputDigest(tr) != outputDigest(u) {
			t.mismatch = append(t.mismatch, "span tracing changed the outputs")
		}
		us = append(us, u)
		pair = u.wall + tr.wall
		overhead = append(overhead, (scaled(tr)-scaled(u))/scaled(u))
	}
	// The replay below times layers against each other, unscaled; the
	// sampler would only interrupt it.
	speed.Stop()
	if err := checkDeterminism(w, env, us); err != nil {
		t.mismatch = append(t.mismatch, err.Error())
	}

	u := us[0]
	lt, bad := replayBatch(w, runs, u)
	t.mismatch = append(t.mismatch, bad...)
	probeNs, boundNs := kernelTimes(lt.kernels)

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// runner: how well the closed batch keeps the workers busy.
	workers := runtime.GOMAXPROCS(0)
	var busy, tails, pointS []float64
	for _, b := range us {
		sum := 0.0
		for _, e := range b.points {
			sum += (e.end - e.start).Seconds()
			pointS = append(pointS, (e.end - e.start).Seconds())
		}
		busy = append(busy, sum/(b.wall.Seconds()*float64(workers)))
		tails = append(tails, tailTime(b.points, b.wall.Seconds(), workers))
	}
	set("runner.busy_frac", "ratio", median(busy))
	set("runner.tail_s", "s", median(tails))
	p90, ok := tailPercentile(pointS, 0.9)
	if !ok {
		p90 = 0 // too few samples beyond p90 to report it
	}
	set("runner.point_p90_s", "s", p90)
	set("runner.point_samples", "count", float64(len(pointS)))

	// scenario: Evaluate wall per scheduler class.
	for _, c := range evalClasses {
		var per []float64
		for _, b := range us {
			sum := 0.0
			for _, e := range b.points {
				if e.class(runs) == c {
					sum += (e.end - e.start).Seconds()
				}
			}
			per = append(per, sum)
		}
		set("scenario.eval_s."+c, "s", median(per))
	}

	// core and envelope: the optimizer's counts in the untraced pass,
	// the replayed call times, and the kernel timings.
	cnt := func(n string) float64 { return float64(u.counts[n]) }
	set("core.alpha.probes", "count", cnt("core.alpha.probes"))
	set("core.alpha.self_s", "s", (lt.alphaSweep - lt.alphaEval).Seconds())
	set("core.edf.calls", "count", float64(lt.edfCalls))
	set("core.edf.bisections", "count", cnt("core.edf.bisections"))
	set("core.edf.s", "s", lt.edf.Seconds())
	set("core.additive.probes", "count", cnt("core.additive.probes"))
	set("core.additive.s", "s", lt.additive.Seconds())
	set("core.delaybound.calls", "count", cnt("core.delaybound.calls"))
	set("core.delaybound.s", "s", lt.delayB.Seconds())
	set("core.gamma.probes", "count", cnt("core.gamma.probes"))
	hitRatio := 0.0
	if all := cnt("core.gamma.probes") + cnt("core.gamma.memo_hits"); all > 0 {
		hitRatio = cnt("core.gamma.memo_hits") / all
	}
	set("core.gamma.memo_hit_ratio", "ratio", hitRatio)
	set("core.innermin.calls", "count", cnt("core.innermin.calls"))
	set("core.innermin.candidates", "count", cnt("core.innermin.candidates"))
	set("core.innermin.ns_per_probe", "ns", probeNs)
	set("envelope.segments", "count", cnt("envelope.segments"))
	set("envelope.aggregate_s", "s", lt.envAggregate.Seconds())
	set("envelope.bound_ns", "ns", boundNs)

	// traffic, sim, measure: the replayed simulations.
	serve := lt.run - lt.fill - lt.capture
	if lt.run > 0 && serve <= 0 {
		t.mismatch = append(t.mismatch, fmt.Sprintf(
			"decomposition: run %v minus fill %v and capture %v leaves no serve time", lt.run, lt.fill, lt.capture))
	}
	set("traffic.fill_s", "s", lt.fill.Seconds())
	set("traffic.fill_ns_per_slot", "ns", perUnit(lt.fill, lt.slots))
	set("sim.run_s", "s", lt.run.Seconds())
	set("sim.serve_s", "s", serve.Seconds())
	set("sim.serve_ns_per_node_slot", "ns", perUnit(serve, lt.nodeSlots))
	set("sim.node_slots_per_s", "1/s", float64(lt.nodeSlots)/u.wall.Seconds())
	set("measure.record_s", "s", lt.record.Seconds())
	set("measure.query_s", "s", lt.query.Seconds())
	set("measure.merge_s", "s", lt.merge.Seconds())
	set("measure.summary_bytes", "bytes", float64(lt.summaryBytes))

	// obs: what the program's span tracer costs.
	set("obs.trace_overhead_frac", "ratio", median(overhead))

	r := result{Metrics: m}
	t.finish(&r, env.stderr)
	reportLargest(env, w, m)
	return r, nil
}

// perUnit is d in nanoseconds per unit of n (0 when n is 0).
func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// leafLayers are the exclusive layer times of the split: the scenario
// and runner figures contain them.
var leafLayers = []string{
	"core.alpha.self_s", "core.edf.s", "core.additive.s", "core.delaybound.s",
	"envelope.aggregate_s", "traffic.fill_s", "sim.serve_s",
	"measure.record_s", "measure.query_s", "measure.merge_s",
}

// reportLargest names the workload's largest leaf layer on stderr.
func reportLargest(env benchEnv, w workload, m map[string]metric) {
	names := append([]string(nil), leafLayers...)
	sort.SliceStable(names, func(i, j int) bool { return m[names[i]].Value > m[names[j]].Value })
	total := 0.0
	for _, n := range leafLayers {
		total += m[n].Value
	}
	fmt.Fprintf(env.stderr, "perfbench: %s: largest leaf layer %s (%.3g s of %.3g s replayed)\n",
		w.name, names[0], m[names[0]].Value, total)
}

// kernelGrid is the number of γ values each configuration is priced at
// for the kernel timings.
const kernelGrid = 16

// kernelTimes times the γ-probe kernel (one path pricing and one inner
// solve per probe, through (*core.Scratch).DelayBoundAtGammas) and the
// path pricing alone (envelope.PathPricer.BoundAt) over a γ grid on
// every configuration, on one goroutine. Configurations the kernel
// rejects are skipped. Both are 0 when there is nothing to time.
func kernelTimes(cfgs []kernelCfg) (probeNs, boundNs float64) {
	var s core.Scratch
	var dst []core.Result
	var probeT time.Duration
	probes := 0
	type priced struct {
		p      envelope.PathPricer
		gammas []float64
	}
	var pricers []priced
	for _, k := range cfgs {
		gm := k.cfg.GammaMax()
		if !(gm > 0) {
			continue
		}
		gammas := make([]float64, kernelGrid)
		for i := range gammas {
			gammas[i] = gm * (float64(i) + 0.5) / kernelGrid
		}
		t0 := time.Now()
		out, err := s.DelayBoundAtGammas(k.cfg, k.eps, gammas, dst)
		probeT += time.Since(t0)
		if err != nil {
			continue
		}
		dst = out
		probes += len(gammas)
		pricers = append(pricers, priced{
			envelope.NewPathPricer(
				envelope.ExpBound{M: k.cfg.Through.M, Alpha: k.cfg.Through.Alpha},
				envelope.ExpBound{M: k.cfg.Cross.M, Alpha: k.cfg.Cross.Alpha},
				k.cfg.H),
			gammas,
		})
	}
	if probes == 0 {
		return 0, 0
	}
	// BoundAt takes tens of nanoseconds; repeat the grid so the clock
	// reads are a negligible share.
	const rounds = 50
	sink, calls := 0.0, 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range pricers {
			for _, g := range pricers[i].gammas {
				sink += pricers[i].p.BoundAt(g).M
				calls++
			}
		}
	}
	boundT := time.Since(t0)
	if math.IsNaN(sink) {
		calls++ // keeps sink live; never taken for valid configurations
	}
	return perUnit(probeT, int64(probes)), perUnit(boundT, int64(calls))
}
