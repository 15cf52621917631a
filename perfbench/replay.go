package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/experiments"
	"deltasched/internal/measure"
	"deltasched/internal/randx"
	"deltasched/internal/scenario"
	"deltasched/internal/sim"
	"deltasched/internal/traffic"
)

// The traced run's layer split comes from replays: after the runner
// passes, the benchmark re-does each point's work itself, calling each
// layer's public functions and timing around those calls. A replay only
// counts once it reproduces the runner's output bit for bit, so the
// split describes the same work the end-to-end numbers measure.

// layerTimes accumulates the replayed work of one or more points. The
// times are busy seconds summed over the replay workers.
type layerTimes struct {
	alphaSweep, alphaEval time.Duration // OptimizeAlphaFunc wall, and the part inside its eval callbacks
	envAggregate          time.Duration // envelope EBB aggregates built by the eval callbacks
	edf, additive, delayB time.Duration // core solves called by the eval callbacks
	edfCalls              int64

	run, fill, capture   time.Duration // sim replay: the run and its fill and sink shares
	record, query, merge time.Duration // sim replay: the exact recorder
	slots, nodeSlots     int64
	summaryBytes         int64

	kernels []kernelCfg // winning configurations, for the kernel timings
}

func (a *layerTimes) add(b layerTimes) {
	a.alphaSweep += b.alphaSweep
	a.alphaEval += b.alphaEval
	a.envAggregate += b.envAggregate
	a.edf += b.edf
	a.additive += b.additive
	a.delayB += b.delayB
	a.edfCalls += b.edfCalls
	a.run += b.run
	a.fill += b.fill
	a.capture += b.capture
	a.record += b.record
	a.query += b.query
	a.merge += b.merge
	a.slots += b.slots
	a.nodeSlots += b.nodeSlots
	a.summaryBytes += b.summaryBytes
	a.kernels = append(a.kernels, b.kernels...)
}

// kernelCfg is one path configuration of the workload with its
// violation probability.
type kernelCfg struct {
	cfg core.PathConfig
	eps float64
}

// replayBatch replays every point of an untraced batch on as many
// workers as the runner uses. It returns the summed layer times and one
// message per point whose replay did not reproduce the runner's output.
func replayBatch(w workload, runs []scenarioRun, b batch) (layerTimes, []string) {
	type out struct {
		lt  layerTimes
		bad []string
	}
	outs := make([]out, len(b.points))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				e := b.points[i]
				lt, err := replayPoint(w.backend, runs[e.run], e)
				outs[i].lt = lt
				if err != nil {
					outs[i].bad = append(outs[i].bad, fmt.Sprintf("replay %s: %s: %v", runs[e.run].name, e.pt.ID, err))
				}
			}
		}()
	}
	for i := range b.points {
		next <- i
	}
	close(next)
	wg.Wait()
	var total layerTimes
	var bad []string
	for _, o := range outs {
		total.add(o.lt)
		bad = append(bad, o.bad...)
	}
	return total, bad
}

// replayPoint replays one point: its analytic bound where the runner
// computed one, then its simulation where it ran one.
func replayPoint(be scenario.Backend, r scenarioRun, e evaluated) (layerTimes, error) {
	var lt layerTimes
	bound := math.NaN()
	sp, isFig := e.pt.Data.(experiments.SweepPoint)
	switch {
	case isFig:
		_, isEDF := sp.Sched.DeadlineRatio()
		if !be.Has(scenario.Analytic) && !isEDF {
			break
		}
		d, err := figureBound(experiments.PaperSetup(), sp, &lt)
		if err != nil {
			return lt, err
		}
		want := e.res.Analytic
		if !be.Has(scenario.Analytic) {
			// The sim backend does not report the bound it provisioned
			// the EDF deadlines from; recompute it the runner's way.
			if want, err = experiments.PaperSetup().EvalPoint(context.Background(), sp); err != nil {
				want = math.NaN()
			}
		}
		if !sameBits(d, want) {
			return lt, fmt.Errorf("decomposed bound %v, EvalPoint %v", d, want)
		}
		bound = d
	case be.Has(scenario.Analytic):
		d, err := tandemBound(r.cfg, &lt)
		if err != nil {
			return lt, err
		}
		if !sameBits(d, e.res.Analytic) {
			return lt, fmt.Errorf("decomposed bound %v, runner %v", d, e.res.Analytic)
		}
		bound = d
	}
	if e.res.Sim == nil {
		return lt, nil
	}
	spec, err := simSpecFor(r, e, bound)
	if err != nil {
		return lt, err
	}
	return lt, replaySim(spec, e.res.Sim, &lt)
}

// sameBits reports bit-for-bit equality, with every NaN equal to NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// timedAlpha is core.OptimizeAlphaFunc with the sweep's own time split
// from the time spent in its eval callbacks.
func timedAlpha(lt *layerTimes, eval func(alpha float64) (float64, error), lo, hi float64) (float64, float64, error) {
	var inEval time.Duration
	t0 := time.Now()
	a, d, err := core.OptimizeAlphaFunc(func(alpha float64) (float64, error) {
		e0 := time.Now()
		v, err := eval(alpha)
		inEval += time.Since(e0)
		return v, err
	}, lo, hi)
	lt.alphaSweep += time.Since(t0)
	lt.alphaEval += inEval
	return a, d, err
}

// figureBound is experiments.Setup.BoundModel for the paper's source,
// re-expressed through core's public API with a timer around every call
// into a layer: the α sweep, the envelope aggregates its callbacks
// build, and the EDF, additive or plain path solve each α prices.
// Infeasible points come back as NaN, as the runner records them.
func figureBound(s experiments.Setup, sp experiments.SweepPoint, lt *layerTimes) (float64, error) {
	build := func(alpha float64) (core.PathConfig, error) {
		t0 := time.Now()
		defer func() { lt.envAggregate += time.Since(t0) }()
		through, err := s.Source.EBBAggregate(sp.N0, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := s.Source.EBBAggregate(sp.Nc, alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: sp.H, C: s.Capacity, Through: through, Cross: cross}, nil
	}

	var eval func(alpha float64) (float64, error)
	delta0c := math.NaN() // Delta0c of the kernel timing configuration
	ratio, isEDF := sp.Sched.DeadlineRatio()
	switch {
	case isEDF:
		eval = func(alpha float64) (float64, error) {
			cfg, err := build(alpha)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			res, _, err := core.EDFProvisioned(cfg, s.Eps, ratio)
			lt.edf += time.Since(t0)
			lt.edfCalls++
			return res.D, err
		}
	case sp.Sched == experiments.BMUXAdditive:
		delta0c = math.Inf(1)
		eval = func(alpha float64) (float64, error) {
			cfg, err := build(alpha)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			res, err := core.AdditiveBound(cfg, s.Eps)
			lt.additive += time.Since(t0)
			return res.D, err
		}
	case sp.Sched == experiments.BMUX || sp.Sched == experiments.FIFO:
		delta0c = 0
		if sp.Sched == experiments.BMUX {
			delta0c = math.Inf(1)
		}
		eval = func(alpha float64) (float64, error) {
			cfg, err := build(alpha)
			if err != nil {
				return 0, err
			}
			cfg.Delta0c = delta0c
			t0 := time.Now()
			res, err := core.DelayBound(cfg, s.Eps)
			lt.delayB += time.Since(t0)
			return res.D, err
		}
	default:
		return 0, fmt.Errorf("unknown scheduler %v", sp.Sched)
	}
	a, d, err := timedAlpha(lt, eval, s.AlphaLo, s.AlphaHi)
	if err != nil {
		return math.NaN(), nil
	}
	// The kernel timings price the winning α's path; an EDF point at the
	// deadlines its bound provisions.
	cfg, berr := build(a)
	if berr == nil {
		cfg.Delta0c = delta0c
		if isEDF {
			cfg.Delta0c = d / float64(sp.H) * (1 - ratio)
		}
		lt.kernels = append(lt.kernels, kernelCfg{cfg, s.Eps})
	}
	return d, nil
}

// tandemBound is the tandem scenario's analytic bound re-expressed the
// same way: an α sweep over memoized envelope aggregates and plain path
// solves at the scheduler's Δ (the BMUX bound for disciplines that are
// not Δ-schedulers).
func tandemBound(c scenario.Config, lt *layerTimes) (float64, error) {
	_, delta, err := scenario.SchedulerFor(c.Str("sched", ""),
		c.Float("edf-d0", 0), c.Float("edf-dc", 0), c.Float("gps-w0", 1), c.Float("gps-wc", 1))
	if err != nil {
		return 0, err
	}
	if math.IsNaN(delta) {
		delta = math.Inf(1)
	}
	memo, err := envelope.NewEBMemo(envelope.PaperSource())
	if err != nil {
		return 0, err
	}
	eps := c.Float("eps", 0)
	build := func(alpha float64) (core.PathConfig, error) {
		t0 := time.Now()
		defer func() { lt.envAggregate += time.Since(t0) }()
		through, err := memo.EBBAggregate(float64(c.Int("n0", 0)), alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		cross, err := memo.EBBAggregate(float64(c.Int("nc", 0)), alpha)
		if err != nil {
			return core.PathConfig{}, err
		}
		return core.PathConfig{H: c.Int("H", 0), C: c.Float("C", 0), Through: through, Cross: cross, Delta0c: delta}, nil
	}
	a, d, err := timedAlpha(lt, func(alpha float64) (float64, error) {
		cfg, err := build(alpha)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := core.DelayBound(cfg, eps)
		lt.delayB += time.Since(t0)
		return res.D, err
	}, 1e-3, 50)
	if err != nil {
		return 0, err
	}
	if cfg, err := build(a); err == nil {
		lt.kernels = append(lt.kernels, kernelCfg{cfg, eps})
	}
	return d, nil
}

// simSpec is what a simulated point runs: the tandem of the paper's
// Fig. 1 with its sources, schedulers, horizon, seed and replications.
type simSpec struct {
	src     envelope.MMOO
	h       int
	c       float64
	n0, nc  int
	count   bool // O(1) ON-count aggregates instead of per-source draws
	mkSched func(node int) sim.Scheduler
	slots   int
	seed    int64
	reps    int
	simeps  float64 // tail mass of the reported quantile
	bound   float64 // bound the violation fraction is measured at (NaN: none)
}

// simSpecFor rebuilds the simulation a point ran from its scenario
// configuration, as the figure and tandem scenarios build theirs.
func simSpecFor(r scenarioRun, e evaluated, bound float64) (simSpec, error) {
	c := r.cfg
	reps := 1
	if v, ok := e.res.Sim["sim_reps"]; ok {
		reps = int(v)
	}
	if sp, ok := e.pt.Data.(experiments.SweepPoint); ok {
		s := experiments.PaperSetup()
		spec := simSpec{
			src: s.Source, h: sp.H, c: s.Capacity,
			n0: int(math.Round(sp.N0)), nc: int(math.Round(sp.Nc)),
			slots: c.Int("slots", 0), seed: c.Int64("seed", 0), reps: reps,
			simeps: c.Float("simeps", 0), bound: math.NaN(),
		}
		ratio, isEDF := sp.Sched.DeadlineRatio()
		switch {
		case isEDF:
			d0 := bound / float64(sp.H)
			dc := ratio * d0
			spec.mkSched = func(int) sim.Scheduler {
				return sim.NewEDF(map[core.FlowID]float64{sim.ThroughFlow: d0, sim.CrossFlow: dc})
			}
			spec.bound = bound
		case sp.Sched == experiments.FIFO:
			spec.mkSched = func(int) sim.Scheduler { return sim.NewFIFO() }
		default:
			spec.mkSched = func(int) sim.Scheduler { return sim.NewBMUX(sim.ThroughFlow) }
		}
		return spec, nil
	}
	mk, _, err := scenario.SchedulerFor(c.Str("sched", ""),
		c.Float("edf-d0", 0), c.Float("edf-dc", 0), c.Float("gps-w0", 1), c.Float("gps-wc", 1))
	if err != nil {
		return simSpec{}, err
	}
	if pkt := c.Float("pktsize", 0); pkt > 0 {
		inner := mk
		mk = func(node int) sim.Scheduler {
			np, err := sim.NewNonPreemptive(inner(node).(sim.HeadQueue), pkt)
			if err != nil {
				panic(err) // the runner accepted this packet size
			}
			return np
		}
	}
	return simSpec{
		src: envelope.PaperSource(), h: c.Int("H", 0), c: c.Float("C", 0),
		n0: c.Int("n0", 0), nc: c.Int("nc", 0), count: c.Str("agg", "") == "count",
		mkSched: mk, slots: c.Int("slots", 0), seed: c.Int64("seed", 0), reps: reps,
		simeps: c.Float("eps", 0), bound: bound,
	}, nil
}

// sources builds the through aggregate and the per-node cross
// aggregates on one shared generator, in the order the scenario does.
func (s simSpec) sources(rng *randx.Rand) (traffic.Source, []traffic.Source, error) {
	mk := func(n int) (traffic.Source, error) {
		if s.count {
			return traffic.NewMMOOCountAggregate(s.src, n, rng)
		}
		return traffic.NewMMOOAggregate(s.src, n, rng)
	}
	through, err := mk(s.n0)
	if err != nil {
		return nil, nil, err
	}
	cross := make([]traffic.Source, s.h)
	for i := range cross {
		if cross[i], err = mk(s.nc); err != nil {
			return nil, nil, err
		}
	}
	return through, cross, nil
}

// captureSink is the benchmark's measurement seam: it keeps the
// cumulative curves the tandem emits, so recording can be timed apart
// from the slot loop by replaying them into the scenario's recorder.
type captureSink struct{ a, d []float64 }

func (c *captureSink) Record(cumA, cumD float64) error {
	c.a = append(c.a, cumA)
	c.d = append(c.d, cumD)
	return nil
}

// replayTries is how often the run and the fill of a replication are
// timed. The fastest of each is kept, so that a passing slowdown of the
// host in one of them does not move the serve time, their difference.
const replayTries = 2

// replaySim re-runs a simulated point one replication at a time and
// holds the pooled statistics to the runner's, bit for bit. Per
// replication it times the tandem run, the traffic fill (re-drawing the
// identically seeded sources slot-major, the order the tandem draws
// them in, since they share one generator), the capture sink's share of
// the run (the same appends again) and the recording (replaying the
// captured curves into the exact recorder). Serving is the run minus
// its fill and its capture.
func replaySim(spec simSpec, want map[string]float64, lt *layerTimes) error {
	per := spec.slots / spec.reps
	seeds := randx.NewSeedStream(spec.seed)
	var stats sim.Stats
	sums := make([]measure.Summary, spec.reps)
	for rep := range sums {
		seed := spec.seed
		if spec.reps > 1 {
			seed = seeds.Seed(rep)
		}
		var sink *captureSink
		var st sim.Stats
		var run, fill time.Duration
		var thr, crs float64
		for try := 0; try < replayTries; try++ {
			// Every try draws the same streams: only the times differ.
			s, t, d, err := runReplication(spec, seed, per)
			if err != nil {
				return err
			}
			if try == 0 || d < run {
				sink, st, run = s, t, d
			}
			tr, cr, d, err := replayFill(spec, seed, per)
			if err != nil {
				return err
			}
			if try == 0 || d < fill {
				thr, crs, fill = tr, cr, d
			}
		}
		lt.run += run
		lt.fill += fill
		if thr != st.ThroughArrived || crs != st.CrossArrived {
			return fmt.Errorf("fill replay drew %v/%v through/cross, the run %v/%v", thr, crs, st.ThroughArrived, st.CrossArrived)
		}

		var again measure.SlotSink = &captureSink{a: make([]float64, 0, per), d: make([]float64, 0, per)}
		t0 := time.Now()
		for i := range sink.a {
			if err := again.Record(sink.a[i], sink.d[i]); err != nil {
				return err
			}
		}
		lt.capture += time.Since(t0)

		t0 = time.Now()
		rec := measure.NewDelayRecorder(per)
		for i := range sink.a {
			if err := rec.Record(sink.a[i], sink.d[i]); err != nil {
				return err
			}
		}
		lt.record += time.Since(t0)

		t0 = time.Now()
		dist := rec.Distribution()
		lt.query += time.Since(t0)
		sums[rep] = &dist

		stats.ThroughArrived += st.ThroughArrived
		stats.MaxBacklog = math.Max(stats.MaxBacklog, st.MaxBacklog)
		lt.slots += int64(per)
		lt.nodeSlots += int64(per) * int64(spec.h)
	}

	pooled := sums[0]
	if spec.reps > 1 {
		t0 := time.Now()
		p, err := measure.MergeSummaries(sums)
		lt.merge += time.Since(t0)
		if err != nil {
			return err
		}
		pooled = p
	}

	t0 := time.Now()
	got := map[string]float64{
		"sim_max_backlog_kbit":     stats.MaxBacklog,
		"sim_through_arrived_kbit": stats.ThroughArrived,
		"sim_censored_fraction":    pooled.CensoredFraction(),
	}
	if q, err := pooled.Quantile(1 - spec.simeps); err == nil {
		got["sim_delay_quantile_slots"] = float64(q)
	}
	if mx, err := pooled.Max(); err == nil {
		got["sim_delay_max_slots"] = float64(mx)
	}
	if !math.IsNaN(spec.bound) && !math.IsInf(spec.bound, 0) {
		got["sim_violation_fraction"] = pooled.ViolationFraction(spec.bound)
	}
	lt.query += time.Since(t0)
	lt.summaryBytes += int64(pooled.MemoryBytes())

	for k, v := range got {
		if w, ok := want[k]; !ok || !sameBits(v, w) {
			return fmt.Errorf("replayed %s = %v, runner %v", k, v, want[k])
		}
	}
	return nil
}

// runReplication runs one replication's tandem on freshly seeded
// sources, capturing its curves, and returns them, its statistics and
// the run's wall time.
func runReplication(spec simSpec, seed int64, slots int) (*captureSink, sim.Stats, time.Duration, error) {
	through, cross, err := spec.sources(randx.NewRand(seed))
	if err != nil {
		return nil, sim.Stats{}, 0, err
	}
	sink := &captureSink{a: make([]float64, 0, slots), d: make([]float64, 0, slots)}
	tan := &sim.Tandem{C: spec.c, Through: through, Cross: cross, MakeSched: spec.mkSched, Sink: sink}
	t0 := time.Now()
	_, st, err := tan.Run(slots)
	return sink, st, time.Since(t0), err
}

// replayFill re-draws one replication's arrivals from freshly seeded
// sources through traffic.FillBlock, one slot of every source at a time
// (the sources share a generator, so a block per source would reorder
// its stream). It returns the through and cross volumes summed in the
// tandem's order and the fill's wall time.
func replayFill(spec simSpec, seed int64, slots int) (float64, float64, time.Duration, error) {
	through, cross, err := spec.sources(randx.NewRand(seed))
	if err != nil {
		return 0, 0, 0, err
	}
	var one [1]float64
	thr, crs := 0.0, 0.0
	t0 := time.Now()
	for j := 0; j < slots; j++ {
		traffic.FillBlock(through, one[:])
		thr += one[0]
		for _, c := range cross {
			traffic.FillBlock(c, one[:])
			crs += one[0]
		}
	}
	return thr, crs, time.Since(t0), nil
}
