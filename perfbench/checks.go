package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"deltasched/internal/scenario"
)

// goldenTol is the relative precision a figure bound must keep against
// its golden: the tolerance a change of the EDF fixed-point solver is
// allowed.
const goldenTol = 2e-9

// rowKey addresses one figure row: the series label and the x
// coordinate as the CSV prints it.
type rowKey struct{ series, x string }

func keyOf(pt scenario.Point) rowKey {
	return rowKey{pt.Series, strconv.FormatFloat(pt.X, 'g', -1, 64)}
}

// golden is one figure's reference bounds.
type golden map[rowKey]float64

// loadGolden reads a series,x,y CSV as written by plot.CSV.
func loadGolden(path string) (golden, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	if len(rows) == 0 || len(rows[0]) != 3 || rows[0][0] != "series" {
		return nil, fmt.Errorf("golden %s: want a series,x,y header", path)
	}
	g := golden{}
	for _, r := range rows[1:] {
		if len(r) != 3 {
			return nil, fmt.Errorf("golden %s: row %v has %d fields", path, r, len(r))
		}
		x, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", path, err)
		}
		y, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", path, err)
		}
		g[rowKey{r[0], strconv.FormatFloat(x, 'g', -1, 64)}] = y
	}
	return g, nil
}

// loadGoldens reads the golden of every scenario run that names one.
func loadGoldens(dir string, runs []scenarioRun) (map[string]golden, error) {
	out := map[string]golden{}
	for _, r := range runs {
		if r.golden == "" || out[r.golden] != nil {
			continue
		}
		g, err := loadGolden(filepath.Join(dir, r.golden))
		if err != nil {
			return nil, err
		}
		out[r.golden] = g
	}
	return out, nil
}

// sameBound reports whether got matches want within the relative
// tolerance, with NaN (an infeasible gap) matching only NaN.
func sameBound(got, want, tol float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// checkGolden compares an analytic figure run with its golden: every
// point must have a golden row and match it, and every golden row must
// be produced. It returns one message per failing point (missing golden
// rows count as failures too).
func checkGolden(g golden, pts []scenario.Point, rs []scenario.Result) []string {
	var bad []string
	seen := map[rowKey]bool{}
	for i, pt := range pts {
		k := keyOf(pt)
		seen[k] = true
		want, ok := g[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no golden row for %q x=%s", pt.ID, k.series, k.x))
		case !sameBound(rs[i].Analytic, want, goldenTol):
			bad = append(bad, fmt.Sprintf("%s: bound %v, golden %v", pt.ID, rs[i].Analytic, want))
		}
	}
	for k := range g {
		if !seen[k] {
			bad = append(bad, fmt.Sprintf("golden row %q x=%s was not produced", k.series, k.x))
		}
	}
	return bad
}

// checkSound holds one simulated point to its bound: the empirical
// violation fraction must not exceed eps and the right-censored volume
// must not exceed simeps. bound is the analytic bound the point is held
// to (NaN when there is none). A point that reports its own violation
// fraction is judged by it; otherwise the observed maximum delay must
// not exceed the bound, which is the same test whenever eps is below
// the volume share of a single slot's arrivals (as at eps = 1e-9).
func checkSound(res scenario.Result, bound, eps, simeps float64) error {
	finite := !math.IsNaN(bound) && !math.IsInf(bound, 0)
	if res.Sim == nil {
		if finite {
			return fmt.Errorf("not simulated, though its bound %g is finite", bound)
		}
		return nil
	}
	if cf, ok := res.Sim["sim_censored_fraction"]; !ok || !(cf <= simeps) {
		return fmt.Errorf("censored fraction %v exceeds simeps %g", cf, simeps)
	}
	if v, ok := res.Sim["sim_violation_fraction"]; ok {
		if !(v <= eps) {
			return fmt.Errorf("violation fraction %v exceeds eps %g", v, eps)
		}
		return nil
	}
	if !finite {
		return nil
	}
	mx, ok := res.Sim["sim_delay_max_slots"]
	if !ok || !(mx <= bound) {
		return fmt.Errorf("maximum delay %v exceeds the bound %g", mx, bound)
	}
	return nil
}

// checkBatch checks every output of a batch and returns the failing
// points' messages, at most one per point, plus the failed scenario
// runs.
func checkBatch(b batch, runs []scenarioRun, goldens map[string]golden) []string {
	bad := append([]string(nil), b.failed...)
	byRun := make([][]evaluated, len(runs))
	for _, e := range b.points {
		byRun[e.run] = append(byRun[e.run], e)
	}
	for i, r := range runs {
		es := byRun[i]
		if len(es) == 0 {
			continue
		}
		g := goldens[r.golden]
		if r.eps == 0 {
			pts := make([]scenario.Point, len(es))
			rs := make([]scenario.Result, len(es))
			for j, e := range es {
				pts[j], rs[j] = e.pt, e.res
			}
			for _, msg := range checkGolden(g, pts, rs) {
				bad = append(bad, r.name+": "+msg)
			}
			continue
		}
		for _, e := range es {
			bound := e.res.Analytic
			if g != nil {
				if want, ok := g[keyOf(e.pt)]; ok {
					bound = want
				} else {
					bound = math.NaN()
				}
			}
			if err := checkSound(e.res, bound, r.eps, r.simeps); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %s: %v", r.name, e.pt.ID, err))
			}
		}
	}
	return bad
}
