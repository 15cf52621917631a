package core

import (
	"context"
	"fmt"
	"math"

	"deltasched/internal/obs"
)

// EDFProvisioned computes the end-to-end delay bound under EDF scheduling
// with self-referential deadline provisioning, as used in the paper's
// examples: the per-node deadline of the through traffic is tied to the
// computed end-to-end bound,
//
//	d*_0 = D_e2e / H,   d*_c = ratio · d*_0,
//
// (Examples 1 and 3 use ratio = 10; Example 2 uses ratio = 2 and 1/2),
// which makes Δ_{0,c} = d*_0 − d*_c = d*_0·(1 − ratio) itself a function
// of the bound: D must solve the fixed-point equation D = f(D), where f
// evaluates the Δ-scheduler bound at the deadlines implied by D.
//
// The fixed point is the root of g(D) = f(D) − D on (0, D_BMUX·(1+1e-9)]:
// g(0+) = f(0) > 0 (at D→0 the deadlines collapse and f(0) is the FIFO
// bound), while g < 0 at the blind-multiplexing bound, an upper bound for
// every Δ-scheduler. edfFixedPoint first brackets the root to 1e-10
// relative width with a safeguarded secant (Illinois) iteration and then
// replays a fixed 1e-9 bisection of that interval, answering every
// midpoint outside the bracket from the bracket's signs. The reported D
// is therefore the bisection's answer — bit for bit whenever the computed
// g changes sign once — at a few evaluations of f instead of ~22. Unlike
// damped iteration, neither phase degrades near saturation.
//
// It returns the converged result and the per-node deadline d*_0.
func EDFProvisioned(cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	return EDFProvisionedCtx(context.Background(), cfg, eps, ratio)
}

// EDFProvisionedCtx is EDFProvisioned with span tracing: when ctx
// carries an active span the fixed-point solve appears as an
// "EDFProvisioned" span and the converged recomputation is traced down
// to innerMinimize. The whole solve — the BMUX bracket, every evaluation
// of f, and the final recomputation — shares one Scratch, so its inner
// DelayBound sweeps reuse the same buffers instead of allocating fresh
// ones per evaluation.
func EDFProvisionedCtx(ctx context.Context, cfg PathConfig, eps, ratio float64) (Result, float64, error) {
	if ratio <= 0 || math.IsNaN(ratio) {
		return Result{}, 0, badConfig("deadline ratio must be positive, got %g", ratio)
	}
	sp := obs.SpanFromContext(ctx).Child("EDFProvisioned")
	defer sp.End()

	// The whole solve shares one pooled Scratch; the path pricing table
	// is keyed on the traffic only, so every evaluation's DelayBound (a
	// different Delta0c) reuses the same priced envelope structure.
	s := getScratch()
	defer putScratch(s)
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	bmux, err := s.DelayBound(bmuxCfg, eps)
	if err != nil {
		return Result{}, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}

	f := func(d float64) (float64, error) {
		trial := cfg
		trial.Delta0c = d / float64(cfg.H) * (1 - ratio)
		r, err := s.DelayBound(trial, eps)
		if err != nil {
			return 0, err
		}
		return r.D, nil
	}
	d, evals, err := edfFixedPoint(f, bmux.D*(1+1e-9))
	if p := optProbe.Load(); p != nil {
		p.EDFBisections.Add(int64(evals))
	}
	if err != nil {
		return Result{}, 0, err
	}

	// Recompute once at the converged deadline so the reported result is
	// self-consistent. The Theta of the shared scratch must be un-aliased:
	// the package-level contract hands the caller full ownership.
	final := cfg
	final.Delta0c = d / float64(cfg.H) * (1 - ratio)
	out, err := s.DelayBoundCtx(obs.ContextWithSpan(ctx, sp), final, eps)
	if err != nil {
		return Result{}, 0, err
	}
	out.Theta = append([]float64(nil), out.Theta...)
	sp.SetAttr("ratio", ratio)
	sp.SetAttr("evaluations", evals)
	sp.SetAttr("D", out.D)
	return out, out.D / float64(cfg.H), nil
}

// edfFixedPoint returns the root of g(x) = f(x) − x on (0, hi], where
// g(0+) > 0 is assumed and g(hi) ≤ 0 is checked, together with the
// number of evaluations of f. The answer is the upper end of the cell
// at which a bisection of [0, hi] — midpoints (lo+hi)/2, "above" when
// f(mid) > mid, stop at hi−lo ≤ 1e-9·hi or after 100 steps — stops.
//
// Phase 1 brackets the root, L < D* ≤ R with g(L) > 0 ≥ g(R) at
// evaluated points (L = 0 is a placeholder until a point above the
// diagonal is found). Its first probe is the fixed-point step f(hi);
// after that it takes Illinois steps, each kept at least 5e-11·R inside
// the bracket so that an exact root x = f(x) — common where f is flat —
// closes the bracket with one probe at x·(1−5e-11). A step is the
// midpoint instead while L is unknown and whenever it is not finite or
// leaves the bracket. It stops at R−L ≤ 1e-10·R or after 64
// evaluations; phase 2 finishes whatever phase 1 leaves open.
//
// Phase 2 replays the bisection, evaluating f only at midpoints
// strictly inside (L, R) and answering the others from the bracket:
// mid ≤ L is above the diagonal, mid ≥ R below. When the computed g
// changes sign once those are the answers f would give, so the result
// is the bisection's bit for bit. Either way the final cell holds an
// evaluated sign change: its lower end is an evaluated point above the
// diagonal or lies at or below L < hi, its upper end an evaluated point
// below it or at or above R > lo.
//
// Every error of f is returned, wrapped with the deadline it failed at.
// g(hi) > 0 and a bisection that does not converge are ErrNoConvergence.
func edfFixedPoint(f func(float64) (float64, error), hi float64) (float64, int, error) {
	evals := 0
	eval := func(x float64) (float64, error) {
		evals++
		fx, err := f(x)
		if err != nil {
			return 0, fmt.Errorf("core: EDF provisioning at d=%g: %w", x, err)
		}
		return fx - x, nil
	}

	g0, err := eval(hi)
	if err != nil {
		return 0, evals, err
	}
	if !(g0 <= 0) {
		return 0, evals, fmt.Errorf("%w: EDF fixed point: f(%g) exceeds the bracket end by %g",
			ErrNoConvergence, hi, g0)
	}
	L, R := 0.0, hi
	gL, gR := math.Inf(1), g0
	haveL := false
	x, gx := hi, g0 // the latest evaluation
	side := 0       // the end it replaced: -1 L, +1 R
	for n := 0; n < 64 && !(haveL && R-L <= 1e-10*R); n++ {
		switch {
		case gx == 0: // an exact root: one probe just below it closes the bracket
			x *= 1 - 5e-11
		case n == 0: // the fixed-point step
			x += gx
		case haveL: // Illinois
			x = R - gR*(R-L)/(gR-gL)
		default: // no point above the diagonal yet: the midpoint below
			x = math.NaN()
		}
		if x >= L && x <= R {
			x = math.Max(L+5e-11*R, math.Min(x, R*(1-5e-11)))
		} else {
			x = L + (R-L)/2
		}
		var err error
		if gx, err = eval(x); err != nil {
			return 0, evals, err
		}
		if gx > 0 {
			L, gL, haveL = x, gx, true
			if side < 0 {
				gR /= 2
			}
			side = -1
		} else {
			R, gR = x, gx
			if side > 0 {
				gL /= 2
			}
			side = +1
		}
	}

	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		above := mid <= L
		if mid > L && mid < R {
			gm, err := eval(mid)
			if err != nil {
				return 0, evals, err
			}
			above = gm > 0
		}
		if above {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	if !(hi-lo <= 1e-6*hi) {
		return 0, evals, fmt.Errorf("%w: EDF fixed point still bracketed by [%g, %g] after 100 bisections",
			ErrNoConvergence, lo, hi)
	}
	return hi, evals, nil
}
