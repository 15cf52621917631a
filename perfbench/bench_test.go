package main

import (
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deltasched/internal/scenario"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// 99 distinct samples: p90 is the 90th, 9 lie beyond it.
	if v, ok := tailPercentile(seq(99), 0.9); ok {
		t.Fatalf("p90 of 99 samples reported (%v) with only 9 beyond it", v)
	}
	// 100 samples: p90 is 90, exactly 10 lie beyond.
	v, ok := tailPercentile(seq(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	// Ties at the percentile do not count as beyond it.
	xs := seq(80)
	for i := 0; i < 30; i++ {
		xs = append(xs, 500)
	}
	if v, ok := tailPercentile(xs, 0.9); ok {
		t.Fatalf("p90 = %v reported though every sample above the 90th rank ties with it", v)
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Fatal("p90 of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestTailTime(t *testing.T) {
	s := func(a, b float64) evaluated {
		return evaluated{start: time.Duration(a * float64(time.Second)), end: time.Duration(b * float64(time.Second))}
	}
	// Two workers: [0,4] and [1,2],[2,3]: one worker idle over [0,1] and
	// [3,4], both idle over [4,5] (the batch ends at 5).
	pts := []evaluated{s(0, 4), s(1, 2), s(2, 3)}
	if got := tailTime(pts, 5, 2); math.Abs(got-3) > 1e-12 {
		t.Fatalf("tail = %v, want 3", got)
	}
}

// figPoints is a two-point figure run and its golden.
func figPoints() ([]scenario.Point, []scenario.Result, golden) {
	pts := []scenario.Point{
		{ID: "a", Series: "EDF H=2", X: 20},
		{ID: "b", Series: "EDF H=2", X: 35},
	}
	rs := []scenario.Result{{Analytic: 10.5}, {Analytic: math.NaN()}}
	g := golden{
		{"EDF H=2", "20"}: 10.5,
		{"EDF H=2", "35"}: math.NaN(),
	}
	return pts, rs, g
}

func TestCheckGoldenAcceptsWithinTolerance(t *testing.T) {
	pts, rs, g := figPoints()
	rs[0].Analytic = 10.5 * (1 + 1e-9)
	if bad := checkGolden(g, pts, rs); len(bad) != 0 {
		t.Fatalf("a row within 2e-9 failed: %v", bad)
	}
}

func TestCheckGoldenFailsPerturbedRow(t *testing.T) {
	pts, rs, g := figPoints()
	rs[0].Analytic = 10.5 * (1 + 3e-9)
	bad := checkGolden(g, pts, rs)
	if len(bad) != 1 || !strings.Contains(bad[0], "a:") {
		t.Fatalf("a row perturbed by 3e-9 gave %v, want one failure for point a", bad)
	}
}

func TestCheckGoldenFailsNaNGapMismatch(t *testing.T) {
	pts, rs, g := figPoints()
	rs[1].Analytic = 42 // the golden has an infeasible gap here
	if bad := checkGolden(g, pts, rs); len(bad) != 1 {
		t.Fatalf("a filled gap gave %v, want one failure", bad)
	}
	pts, rs, g = figPoints()
	rs[0].Analytic = math.NaN() // a gap where the golden has a bound
	if bad := checkGolden(g, pts, rs); len(bad) != 1 {
		t.Fatalf("a new gap gave %v, want one failure", bad)
	}
}

func TestCheckGoldenFailsMissingRows(t *testing.T) {
	pts, rs, g := figPoints()
	if bad := checkGolden(g, pts[:1], rs[:1]); len(bad) != 1 {
		t.Fatalf("an unproduced golden row gave %v, want one failure", bad)
	}
	pts = append(pts, scenario.Point{ID: "c", Series: "EDF H=2", X: 50})
	rs = append(rs, scenario.Result{Analytic: 1})
	if bad := checkGolden(g, pts, rs); len(bad) != 1 {
		t.Fatalf("a point without golden row gave %v, want one failure", bad)
	}
}

func TestShippedGoldensLoad(t *testing.T) {
	for f, rows := range map[string]int{"fig1.csv": 54, "fig2.csv": 60, "fig3.csv": 120} {
		g, err := loadGolden(filepath.Join("testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != rows {
			t.Fatalf("%s: %d rows, want %d", f, len(g), rows)
		}
	}
}

func TestCheckSound(t *testing.T) {
	sim := func(kv ...float64) scenario.Result {
		m := map[string]float64{"sim_censored_fraction": kv[0], "sim_delay_max_slots": kv[1]}
		if len(kv) > 2 {
			m["sim_violation_fraction"] = kv[2]
		}
		return scenario.Result{Analytic: math.NaN(), Sim: m}
	}
	cases := []struct {
		name    string
		res     scenario.Result
		bound   float64
		wantErr bool
	}{
		{"sound", sim(0, 30, 0.001), 100, false},
		{"violating", sim(0, 300, 0.02), 100, true},
		{"censored", sim(0.05, 30, 0), 100, true},
		{"max within bound", sim(0, 99, 0), 100, false},
		{"max beyond bound", sim(0, 101), 100, true},
		{"no bound", sim(0, 1e6), math.NaN(), false},
		{"not simulated", scenario.Result{}, 100, true},
		{"infeasible gap", scenario.Result{}, math.NaN(), false},
	}
	for _, c := range cases {
		err := checkSound(c.res, c.bound, 0.01, 0.01)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

func TestCheckBatchCountsViolatingPoint(t *testing.T) {
	runs := []scenarioRun{{name: "tandem", eps: 0.01, simeps: 0.01}}
	ok := scenario.Result{Analytic: 100, Sim: map[string]float64{"sim_censored_fraction": 0, "sim_violation_fraction": 0}}
	bad := scenario.Result{Analytic: 100, Sim: map[string]float64{"sim_censored_fraction": 0, "sim_violation_fraction": 0.5}}
	b := batch{points: []evaluated{{pt: scenario.Point{ID: "p0"}, res: ok}, {pt: scenario.Point{ID: "p1"}, res: bad}}}
	msgs := checkBatch(b, runs, nil)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "p1") {
		t.Fatalf("messages %v, want one for p1", msgs)
	}
	var tl tally
	tl.add(b, msgs)
	var r result
	tl.finish(&r, io.Discard)
	if r.Correct || r.Attempted != 2 || r.Failed != 1 {
		t.Fatalf("verdict %+v, want 1 of 2 failed", r)
	}
}

func TestUsageErrors(t *testing.T) {
	if code := run([]string{"--seconds", "1"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("no workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	t.Setenv("CARGO_TARGET_DIR", "")
	if code := run([]string{"--workload", "figs-analytic"}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("no build directory: exit %d, want 1", code)
	}
	// The test runs in perfbench/, where perfbench/testdata is missing,
	// as it is outside a checkout.
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	if code := run([]string{"--workload", "figs-analytic"}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("outside a checkout: exit %d, want 1", code)
	}
}

func TestSpeedScale(t *testing.T) {
	t0 := time.Now()
	ms := func(x float64) float64 { return x * 1e-3 }
	l := &speedLog{}
	if got := l.scale(t0, t0); got != 1 {
		t.Fatalf("no samples: scale %v, want 1", got)
	}
	// A slow host (kernel 2 ms) for the first 10 s, then the nominal one;
	// the 9 ms sample was interrupted and must not count.
	for i := 0; i < 400; i++ {
		at := t0.Add(time.Duration(i) * 50 * time.Millisecond)
		d := ms(2)
		if i >= 200 {
			d = ms(1)
		}
		if i == 10 {
			d = ms(9)
		}
		l.at, l.took = append(l.at, at), append(l.took, d)
	}
	cases := []struct {
		name string
		a, b time.Duration
		want float64
	}{
		{"slow interval", 0, 1 * time.Second, 0.5},
		{"nominal interval", 15 * time.Second, 16 * time.Second, 1},
		{"after the last sample", 30 * time.Second, 31 * time.Second, 1},
	}
	for _, c := range cases {
		if got := l.scale(t0.Add(c.a), t0.Add(c.b)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: scale %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRefKernelDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { refSink += refKernel() }); n != 0 {
		t.Fatalf("refKernel allocates %v times per run", n)
	}
}

func TestSpeedBusy(t *testing.T) {
	t0 := time.Now()
	ms := time.Millisecond
	// One 2 ms kernel run centred at 10 ms.
	l := &speedLog{at: []time.Time{t0.Add(10 * ms)}, took: []float64{0.002}}
	cases := []struct {
		a, b time.Duration
		want time.Duration
	}{
		{0, 20 * ms, 2 * ms},
		{10 * ms, 20 * ms, 1 * ms},
		{12 * ms, 20 * ms, 0},
		{9500 * time.Microsecond, 10500 * time.Microsecond, 1 * ms},
	}
	for _, c := range cases {
		if got := l.busy(t0.Add(c.a), t0.Add(c.b)); got != c.want {
			t.Errorf("busy over [%v, %v] = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// adjust leaves the run out, then scales by nominal / 2 ms.
	if got, want := l.adjust(t0, t0.Add(20*ms), 20*ms), 0.018*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("adjust = %v, want %v", got, want)
	}
}
