package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"deltasched/internal/envelope"
)

// bisectFixedPoint is the EDF fixed-point loop as it was before the
// two-phase solver: a plain bisection of g(D) = f(D) − D over (0, hi]
// that trusts g(hi) ≤ 0 without evaluating it. Kept verbatim as the
// oracle edfFixedPoint must reproduce bit for bit.
func bisectFixedPoint(f func(float64) (float64, error), hi float64) (float64, int, error) {
	lo := 0.0
	iters := 0
	// Ensure the upper end brackets: g(hi) <= 0 must hold since f <= BMUX.
	for i := 0; i < 100; i++ {
		iters++
		mid := (lo + hi) / 2
		fm, err := f(mid)
		if err != nil {
			return 0, iters, fmt.Errorf("core: EDF provisioning at d=%g: %w", mid, err)
		}
		if fm > mid {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-9*hi {
			break
		}
	}
	if !(hi-lo <= 1e-6*hi) {
		return 0, iters, fmt.Errorf("%w: EDF fixed point still bracketed by [%g, %g] after 100 bisections",
			ErrNoConvergence, lo, hi)
	}
	return hi, iters, nil
}

// edfProvisionedBisection is EDFProvisioned on the bisection oracle,
// with the same BMUX bracket and the same final recomputation.
func edfProvisionedBisection(cfg PathConfig, eps, ratio float64) (Result, float64, int, error) {
	bmuxCfg := cfg
	bmuxCfg.Delta0c = math.Inf(1)
	bmux, err := DelayBound(bmuxCfg, eps)
	if err != nil {
		return Result{}, 0, 0, fmt.Errorf("core: EDF provisioning bracket: %w", err)
	}
	f := func(d float64) (float64, error) {
		trial := cfg
		trial.Delta0c = d / float64(cfg.H) * (1 - ratio)
		r, err := DelayBound(trial, eps)
		if err != nil {
			return 0, err
		}
		return r.D, nil
	}
	d, iters, err := bisectFixedPoint(f, bmux.D*(1+1e-9))
	if err != nil {
		return Result{}, 0, iters, err
	}
	final := cfg
	final.Delta0c = d / float64(cfg.H) * (1 - ratio)
	out, err := DelayBound(final, eps)
	if err != nil {
		return Result{}, 0, iters, err
	}
	return out, out.D / float64(cfg.H), iters, nil
}

// TestEDFProvisionedMatchesBisection pins the solver to the bisection
// oracle over the paper's deadline ratios, path lengths from 1 to 30,
// utilizations up to 95% and a grid of EBB decays: the bound, the
// per-node rates and d*_0 must agree bit for bit, and the solver must
// cost a fraction of the oracle's evaluations.
func TestEDFProvisionedMatchesBisection(t *testing.T) {
	p := testProbe(t)
	src := envelope.PaperSource()
	const perFlow, capacity = 0.15, 100
	var evals, iters, points int64
	for _, ratio := range []float64{10, 2, 0.5} {
		for _, h := range []int{1, 2, 5, 10, 30} {
			for _, u := range [][2]float64{{0.15, 0.15}, {0.15, 0.45}, {0.4, 0.4}, {0.15, 0.8}, {0.5, 0.45}} {
				for _, alpha := range []float64{0.001, 0.003, 0.006, 0.012, 0.025, 0.045} {
					through, err := src.EBBAggregate(u[0]*capacity/perFlow, alpha)
					if err != nil {
						t.Fatal(err)
					}
					cross, err := src.EBBAggregate(u[1]*capacity/perFlow, alpha)
					if err != nil {
						t.Fatal(err)
					}
					cfg := PathConfig{H: h, C: capacity, Through: through, Cross: cross}
					name := fmt.Sprintf("ratio=%g H=%d U0=%g Uc=%g alpha=%g", ratio, h, u[0], u[1], alpha)

					before := p.EDFBisections.Load()
					got, gotD0, err := EDFProvisioned(cfg, 1e-9, ratio)
					n := p.EDFBisections.Load() - before
					want, wantD0, it, werr := edfProvisionedBisection(cfg, 1e-9, ratio)
					if (err == nil) != (werr == nil) || errors.Is(err, ErrInfeasible) != errors.Is(werr, ErrInfeasible) {
						t.Fatalf("%s: error %v, oracle error %v", name, err, werr)
					}
					if err != nil {
						continue
					}
					points++
					evals += n
					iters += int64(it)
					if got.D != want.D || gotD0 != wantD0 {
						t.Errorf("%s: D = %v, d0 = %v; oracle D = %v, d0 = %v", name, got.D, gotD0, want.D, wantD0)
					}
					if len(got.Theta) != len(want.Theta) {
						t.Fatalf("%s: %d thetas, oracle %d", name, len(got.Theta), len(want.Theta))
					}
					for i := range got.Theta {
						if got.Theta[i] != want.Theta[i] {
							t.Errorf("%s: theta[%d] = %v, oracle %v", name, i, got.Theta[i], want.Theta[i])
						}
					}
				}
			}
		}
	}
	if points < 200 {
		t.Fatalf("only %d feasible points compared", points)
	}
	t.Logf("%d points: %d solver evaluations, %d oracle bisections", points, evals, iters)
	if evals*3 > iters {
		t.Errorf("solver used %d evaluations against the oracle's %d, want at most a third", evals, iters)
	}
}

// evalLog records the points a solver evaluated and g there.
type evalLog struct {
	x, g []float64
}

func (l *evalLog) wrap(f func(float64) float64) func(float64) (float64, error) {
	return func(x float64) (float64, error) {
		fx := f(x)
		l.x = append(l.x, x)
		l.g = append(l.g, fx-x)
		return fx, nil
	}
}

func plain(f func(float64) float64) func(float64) (float64, error) {
	return func(x float64) (float64, error) { return f(x), nil }
}

// TestEDFFixedPointSyntheticMonotone: on monotone synthetic g the solver
// returns the oracle's answer bit for bit with far fewer evaluations.
func TestEDFFixedPointSyntheticMonotone(t *testing.T) {
	cases := []struct {
		name     string
		f        func(float64) float64
		hi       float64
		maxEvals int
	}{
		{"constant", func(float64) float64 { return 37.25 }, 100, 3},
		{"steep decreasing", func(x float64) float64 { return 5 + 900*math.Exp(-x) }, 1000, 16},
		{"very steep decreasing", func(x float64) float64 { return 1 + 1e6*math.Exp(-3*x) }, 1000, 32},
		{"decreasing with a flat tail", func(x float64) float64 { return math.Max(12, 80-x) }, 100, 6},
		{"steep increasing", func(x float64) float64 { return 1 + 0.999*x }, 2000, 8},
		{"convex increasing", func(x float64) float64 { return 3 + x*x/250 }, 200, 16},
		{"saturating increasing", func(x float64) float64 { return 50 * (1 - math.Exp(-x/20)) }, 60, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, iters, werr := bisectFixedPoint(plain(tc.f), tc.hi)
			got, evals, err := edfFixedPoint(plain(tc.f), tc.hi)
			if err != nil || werr != nil {
				t.Fatalf("solver error %v, oracle error %v", err, werr)
			}
			if got != want {
				t.Errorf("root %v, oracle %v", got, want)
			}
			if evals > tc.maxEvals || evals >= iters {
				t.Errorf("%d evaluations (oracle %d), want at most %d", evals, iters, tc.maxEvals)
			}
		})
	}
}

// TestEDFFixedPointNonMonotone: on a noisy g with many sign changes the
// answer may differ from the oracle's, but the solver still converges
// and its final bisection cell holds an evaluated sign change.
func TestEDFFixedPointNonMonotone(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		phase := float64(seed) * 0.37
		f := func(x float64) float64 { return 40 + 25*math.Sin(x*1.3+phase) + 5*math.Sin(x*17.1) }
		var log evalLog
		d, _, err := edfFixedPoint(log.wrap(f), 100)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The solver's evaluated points above the diagonal all lie left
		// of those below it, so the change is the largest point above in
		// the cell and any point below past it.
		lo := d * (1 - 1e-9)
		top := math.Inf(-1)
		for i, x := range log.x {
			if x >= lo && x < d && log.g[i] > 0 {
				top = math.Max(top, x)
			}
		}
		above, below := !math.IsInf(top, -1), false
		for i, x := range log.x {
			if x > top && x <= d && !(log.g[i] > 0) {
				below = true
			}
		}
		if !above || !below {
			t.Errorf("seed %d: cell (%v, %v] holds no evaluated sign change", seed, lo, d)
		}
	}
}

// TestEDFFixedPointReturnsErrors: an error on any evaluation, including
// those of the bracketing phase, is returned wrapped with its deadline.
func TestEDFFixedPointReturnsErrors(t *testing.T) {
	f := func(x float64) float64 { return 5 + 900*math.Exp(-x) }
	_, total, err := edfFixedPoint(plain(f), 1000)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for k := 1; k <= total; k++ {
		calls := 0
		failing := func(x float64) (float64, error) {
			if calls++; calls == k {
				return 0, boom
			}
			return f(x), nil
		}
		_, evals, err := edfFixedPoint(failing, 1000)
		if !errors.Is(err, boom) {
			t.Errorf("error on evaluation %d of %d: got %v", k, total, err)
		}
		if evals != k {
			t.Errorf("error on evaluation %d: solver went on to %d evaluations", k, evals)
		}
	}
}

// TestEDFFixedPointUncheckedBracket: g(hi) > 0 means hi does not bracket
// the root. The oracle never evaluates hi and silently returns it; the
// solver checks it and reports ErrNoConvergence, as it does when g has
// no positive value at all.
func TestEDFFixedPointUncheckedBracket(t *testing.T) {
	above := func(x float64) float64 { return 2*x + 1 }
	if d, _, err := bisectFixedPoint(plain(above), 100); err != nil || d != 100 {
		t.Fatalf("oracle: %v, %v; want it to trust the bracket end", d, err)
	}
	for name, f := range map[string]func(float64) float64{
		"g(hi) > 0":   above,
		"g(hi) NaN":   func(float64) float64 { return math.NaN() },
		"g never > 0": func(float64) float64 { return -1 },
	} {
		if _, _, err := edfFixedPoint(plain(f), 100); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: got %v, want ErrNoConvergence", name, err)
		}
	}
}
