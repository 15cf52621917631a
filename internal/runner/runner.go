package runner

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"deltasched/internal/core"
	"deltasched/internal/experiments"
	"deltasched/internal/faults"
	"deltasched/internal/obs"
	"deltasched/internal/scenario"
	"deltasched/internal/shard"
)

// optimizerProbe wires the core optimizer's introspection seam to
// registry-backed counters, so a -metrics-addr endpoint serves the
// optimizer's work breakdown live and every report snapshots it.
// Registration is idempotent, so repeated Main calls (tests) reuse the
// same counters.
func optimizerProbe() *core.OptProbe {
	r := obs.Default
	return &core.OptProbe{
		DelayBoundCalls:  r.Counter("core_delaybound_calls_total", "top-level gamma-optimized DelayBound solves", nil),
		GammaProbes:      r.Counter("core_gamma_probes_total", "delay evaluations at fixed gamma (grid + golden + final)", nil),
		GammaBatchProbes: r.Counter("core_gamma_batch_probes_total", "gamma probes priced through the batched table-driven kernels", nil),
		GammaMemoHits:    r.Counter("core_gamma_memo_hits_total", "gamma re-probes served from the per-sweep memo", nil),
		InnerMinCalls:    r.Counter("core_innermin_calls_total", "inner minimization solves (Eq. 38)", nil),
		InnerCandidates:  r.Counter("core_innermin_candidates_total", "candidate breakpoints priced by the inner minimization", nil),
		EnvelopeSegs:     r.Counter("core_envelope_segments_total", "envelope segments assembled and merged by the path bound", nil),
		AlphaSweeps:      r.Counter("core_alpha_sweeps_total", "alpha (EBB decay) optimization sweeps", nil),
		AlphaProbes:      r.Counter("core_alpha_probes_total", "alpha evaluations priced (memo misses)", nil),
		AlphaMemoHits:    r.Counter("core_alpha_memo_hits_total", "alpha re-probes served from the sweep memo", nil),
		EDFBisections:    r.Counter("core_edf_bisections_total", "EDF fixed-point evaluations of f", nil),
		AdditiveProbes:   r.Counter("core_additive_probes_total", "additive-analysis gamma evaluations", nil),
	}
}

// App is one CLI process: its flag set, the signal-aware context, the
// observability session, the resume checkpoint, and the selected
// backend. New registers the shared flags; Main parses, wires the
// lifecycle, and hands a ready App to the command body.
type App struct {
	Name    string
	FS      *flag.FlagSet
	Ctx     context.Context
	Sess    *obs.Session
	Check   *experiments.Checkpoint
	Backend scenario.Backend

	obsFlags   obs.Flags
	checkpoint *string
	resume     *bool
	catalog    *bool
	backendStr *string
	reps       *int
	simWorkers *int
	measure    *string

	// Sharded-sweep flag group and point resilience knobs (shard.go).
	shardStr     *string
	claimN       *int
	mergeFlag    *bool
	shardDir     *string
	leaseTTL     *time.Duration
	pointTimeout *time.Duration
	pointRetries *int
	retryBase    *time.Duration
	faultsStr    *string

	shardMode shardMode
	shardSpec shard.Spec
	injector  *faults.Injector
}

// New creates an App and registers the flags every command shares:
// -checkpoint/-resume, -scenarios, -backend (defaulting to def), and the
// observability set (-report, -progress, profiling). Command-specific
// flags are added to app.FS before Main.
func New(name string, def scenario.Backend) *App {
	a := &App{Name: name, FS: flag.NewFlagSet(name, flag.ContinueOnError)}
	a.checkpoint = a.FS.String("checkpoint", "", "record completed sweep points in this JSON file")
	a.resume = a.FS.Bool("resume", false, "skip points already recorded in the -checkpoint file")
	a.catalog = a.FS.Bool("scenarios", false, "print the scenario catalog and exit")
	a.backendStr = a.FS.String("backend", def.String(), "evaluation backend: analytic, sim or both")
	a.reps = a.FS.Int("reps", 1, "sim backend: independent replications per point (splits the slot budget across disjoint seed streams; reps>1 adds Student-t CI metrics)")
	a.simWorkers = a.FS.Int("simworkers", 0, "sim backend: max concurrent replications per point (0 = all cores)")
	a.measure = a.FS.String("measure", "exact", "sim backend: measurement backend — exact (full per-slot samples, byte-identical goldens) or sketch (fixed-memory mergeable quantile sketch; reports a rank-error bound)")
	a.registerShardFlags()
	a.obsFlags.Register(a.FS)
	return a
}

// Reps returns the -reps flag value: independent sim replications per
// point.
func (a *App) Reps() int { return *a.reps }

// SimWorkers returns the -simworkers flag value: the replication worker
// pool bound (0 = GOMAXPROCS).
func (a *App) SimWorkers() int { return *a.simWorkers }

// Measure returns the -measure flag value: the delay measurement
// backend name ("exact" or "sketch"), validated by the scenario.
func (a *App) Measure() string { return *a.measure }

// ReportEnabled reports whether -report was set: commands use it to
// enable expensive instrumentation (per-node probes) only when a report
// will be written.
func (a *App) ReportEnabled() bool { return a.obsFlags.Report != "" }

// Main runs the command: parse flags, honour -scenarios, load or create
// the checkpoint, install signal handling, start the observability
// session, and call body with everything wired. The deferred teardown
// mirrors the historical CLIs: the checkpoint and a truthfully-marked
// report land on disk even (especially) when the run is cut short.
func (a *App) Main(args []string, body func(a *App) error) (retErr error) {
	if err := a.FS.Parse(args); err != nil {
		return err
	}
	if *a.catalog {
		return PrintCatalog(os.Stdout)
	}
	be, err := scenario.ParseBackend(*a.backendStr)
	if err != nil {
		return fmt.Errorf("%w: %v", core.ErrBadConfig, err)
	}
	a.Backend = be
	if err := a.initShard(); err != nil {
		return err
	}
	if *a.resume && *a.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	var salvagedPoints int
	if *a.checkpoint != "" {
		if *a.resume {
			if a.Check, err = experiments.LoadCheckpoint(*a.checkpoint); err != nil {
				return err
			}
			if n, salvaged := a.Check.Salvage(); salvaged {
				salvagedPoints = n
				fmt.Fprintf(os.Stderr, "%s: checkpoint %s was damaged; salvaged %d intact points, the rest will be recomputed\n",
					a.Name, *a.checkpoint, n)
			}
			fmt.Fprintf(os.Stderr, "%s: resuming with %d checkpointed points\n", a.Name, a.Check.Len())
		} else {
			a.Check = experiments.NewCheckpoint(*a.checkpoint)
		}
	}

	ctx, stopSignals := obs.SignalContext(context.Background())
	defer stopSignals()

	sess, err := a.obsFlags.Start(a.Name)
	if err != nil {
		return err
	}
	a.Sess = sess
	// The context carries the session's root span (when tracing), so every
	// layer below — scenario, experiments, core — can open child spans
	// through obs.StartSpan without new plumbing.
	a.Ctx = sess.Context(ctx)
	if sess.Instrumented() {
		core.SetOptProbe(optimizerProbe())
	}
	defer func() {
		if ferr := a.Check.Flush(); ferr != nil && retErr == nil {
			retErr = ferr
		}
		if obs.Interrupted(retErr) {
			sess.Report.SetInterrupted()
		}
		if cerr := sess.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	sess.Report.Config = obs.ConfigFromFlags(a.FS)
	if salvagedPoints > 0 {
		sess.Report.SetMetric("checkpoint_salvaged_points", float64(salvagedPoints))
	}

	return body(a)
}

// RunOpt names a scenario run in the observability outputs. Zero values
// default to the scenario name.
type RunOpt struct {
	Label string // progress display label
	Stage string // report stage name
	Sweep string // report sweep key (multi-point scenarios)
}

// Run executes a scenario against the App's backend: enumerate points,
// fan out over ParMapCtx (cancellable, panic-isolating), drive progress
// and the report sweep, and — for resumable sweeps under the analytic
// backend — serve and record points through the checkpoint. Results come
// back in point order.
func (a *App) Run(sc scenario.Scenario, cfg scenario.Config, opt RunOpt) ([]scenario.Point, []scenario.Result, error) {
	info := sc.Info()
	if opt.Label == "" {
		opt.Label = info.Name
	}
	if opt.Stage == "" {
		opt.Stage = info.Name
	}
	if opt.Sweep == "" {
		opt.Sweep = info.Name
	}
	be := a.Backend
	if be&^info.Backends != 0 {
		return nil, nil, fmt.Errorf("%w: scenario %q runs on backend %s, not %s",
			core.ErrBadConfig, info.Name, info.Backends, be)
	}

	// The replication and measurement flags are run-engine knobs, not
	// scenario parameters: inject them for every sim-capable run (before
	// Points, so replicated point IDs carry their reps=R / measure=sketch
	// tags). Scenarios without a sim path ignore the keys.
	if be.Has(scenario.Sim) {
		cfg = cfg.With("reps", a.Reps()).With("simworkers", a.SimWorkers()).With("measure", a.Measure())
	}

	pts, err := sc.Points(cfg)
	if err != nil {
		return nil, nil, err
	}

	// Sharded runs take their own path: partition the ID universe, write
	// or merge fragments. They share the checkpoint gate below — only an
	// analytic scalar sweep has per-point values a fragment can carry.
	if a.shardMode != shardOff {
		if !info.Sweep || be != scenario.Analytic {
			return nil, nil, fmt.Errorf("%w: sharded runs apply to analytic scalar sweeps; scenario %q under backend %s is not one",
				core.ErrBadConfig, info.Name, be)
		}
		return a.runSharded(sc, cfg, opt, pts)
	}

	// Checkpointing applies to scalar sweeps under the pure analytic
	// backend: only there is a point a single resumable float. Lookup and
	// Record are nil-safe, so an unset -checkpoint needs no guard.
	useCheck := info.Sweep && be == scenario.Analytic

	pr := a.Sess.NewProgress(opt.Label)
	var opts experiments.RunOptions
	if info.Sweep {
		opts.OnDone = func(done, total int) {
			a.Sess.Report.ObserveSweep(opt.Sweep, done, total)
			pr.Observe(done, total)
		}
	} else {
		// Single-shot scenarios report fine-grained progress from inside
		// Evaluate (e.g. the tandem simulation's slot loop).
		cfg = cfg.WithProgress(pr.Observe)
	}

	// Per-scenario run metrics: evaluated-point count and wall-time
	// distribution, labeled by scenario so a multi-figure run breaks down
	// per workload on the /metrics endpoint and in the report snapshot.
	pointsTotal := obs.Default.Counter("runner_points_total",
		"scenario points evaluated", obs.Labels{"scenario": info.Name})
	pointSeconds := obs.Default.Histogram("runner_point_seconds",
		"per-point evaluation wall time", obs.ExpBuckets(1e-4, 4, 12),
		obs.Labels{"scenario": info.Name})

	fn := func(ctx context.Context, pt scenario.Point) (scenario.Result, error) {
		if useCheck {
			if v, ok := a.Check.Lookup(pt.ID); ok {
				return scenario.Result{Analytic: v}, nil
			}
		}
		t0 := time.Now()
		pctx, psp := obs.StartSpan(ctx, "point")
		if psp != nil {
			psp.SetAttr("id", pt.ID)
		}
		res, err := sc.Evaluate(pctx, cfg, pt, be)
		psp.End()
		pointSeconds.Observe(time.Since(t0).Seconds())
		pointsTotal.Inc()
		switch {
		case err == nil:
		case info.Sweep && errors.Is(err, core.ErrInfeasible):
			// An infeasible sweep point is a legitimate data point — the
			// figure shows a gap there. Everything else aborts the run so
			// bugs and interrupts are not silently plotted as gaps.
			res = scenario.Result{Analytic: math.NaN()}
		default:
			return scenario.Result{}, err
		}
		if useCheck {
			a.Check.Record(pt.ID, res.Analytic)
		}
		return res, nil
	}
	// Point resilience on the plain path: with no retry budget the
	// -point-timeout deadline rides ParMapCtx's per-item timeout; with
	// retries each attempt is deadlined inside shard.Retry instead, so a
	// timed-out attempt can be retried rather than failing the item.
	if *a.pointRetries > 0 {
		inner := fn
		pol := a.retryPolicy()
		fn = func(ctx context.Context, pt scenario.Point) (scenario.Result, error) {
			return shard.Retry(ctx, pol, pt.ID, func(actx context.Context) (scenario.Result, error) {
				return inner(actx, pt)
			})
		}
	} else {
		opts.ItemTimeout = *a.pointTimeout
	}

	stop := a.Sess.Stage(opt.Stage)
	runCtx, runSpan := obs.StartSpan(a.Ctx, info.Name)
	rs, _, err := experiments.ParMapCtx(runCtx, 0, pts, fn, opts)
	runSpan.End()
	stop()
	if err != nil {
		reason := "failed"
		if obs.Interrupted(err) {
			reason = "interrupted"
		}
		pr.Abort(reason)
		return nil, nil, err
	}
	pr.Finish()
	return pts, rs, nil
}
