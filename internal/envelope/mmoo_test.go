package envelope

import (
	"math"
	"testing"
)

func TestPaperSourceStatistics(t *testing.T) {
	m := PaperSource()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: peak 1.5 kbit/ms = 1.5 Mbps, average ≈ 0.15 Mbps.
	almost(t, m.PeakRate(), 1.5, 0, "peak")
	almost(t, m.OnProbability(), 0.011/0.111, 1e-12, "P(ON) = p12/(p12+p21)")
	almost(t, m.MeanRate(), 1.5*0.011/0.111, 1e-12, "mean rate ≈ 0.1486 kbit/ms")
}

func TestMMOOValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       MMOO
		wantErr bool
	}{
		{"paper", PaperSource(), false},
		{"zero peak", MMOO{Peak: 0, P11: 0.9, P22: 0.9}, true},
		{"prob above 1", MMOO{Peak: 1, P11: 1.2, P22: 0.9}, true},
		{"NaN P11", MMOO{Peak: 1, P11: math.NaN(), P22: 0.9}, true},
		{"NaN P22", MMOO{Peak: 1, P11: 0.9, P22: math.NaN()}, true},
		{"negatively correlated", MMOO{Peak: 1, P11: 0.2, P22: 0.2}, true}, // p12+p21 = 1.6 > 1
		{"iid boundary", MMOO{Peak: 1, P11: 0.5, P22: 0.5}, false},         // p12+p21 = 1
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEffectiveBandwidthLimits(t *testing.T) {
	m := PaperSource()
	// eb(s) is sandwiched between mean and peak rate and is non-decreasing.
	prev := 0.0
	for i, s := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100} {
		eb, err := m.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		if eb < m.MeanRate()-1e-9 || eb > m.PeakRate()+1e-9 {
			t.Fatalf("eb(%g) = %g outside [mean=%g, peak=%g]", s, eb, m.MeanRate(), m.PeakRate())
		}
		if i > 0 && eb < prev-1e-12 {
			t.Fatalf("eb not monotone at s=%g: %g < %g", s, eb, prev)
		}
		prev = eb
	}
	// Limits.
	ebSmall, _ := m.EffectiveBandwidth(1e-6)
	almost(t, ebSmall, m.MeanRate(), 1e-3, "eb(0+) → mean rate")
	ebLarge, _ := m.EffectiveBandwidth(1e4)
	almost(t, ebLarge, m.PeakRate(), 1e-2, "eb(∞) → peak rate")

	if _, err := m.EffectiveBandwidth(0); err == nil {
		t.Error("s=0 must be rejected")
	}
}

func TestEffectiveBandwidthMatchesGeneralMarkov(t *testing.T) {
	m := PaperSource()
	gen := m.TwoState()
	for _, s := range []float64{0.01, 0.1, 0.5, 1, 3} {
		closed, err := m.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		power, err := gen.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, power, closed, 1e-6, "closed form vs spectral radius")
	}
}

func TestEBBAggregate(t *testing.T) {
	m := PaperSource()
	e, err := m.EBBAggregate(100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := m.EffectiveBandwidth(0.5)
	almost(t, e.Rho, 100*eb, 1e-9, "aggregate rate n·eb(s)")
	almost(t, e.M, 1, 0, "prefactor 1")
	almost(t, e.Alpha, 0.5, 0, "alpha = s")

	if _, err := m.EBBAggregate(-1, 0.5); err == nil {
		t.Error("negative aggregate size must be rejected")
	}
}

func TestFlowsForUtilization(t *testing.T) {
	m := PaperSource()
	n, err := m.FlowsForUtilization(0.15, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The paper equates N=100 flows with U=15% on a 100 Mbps link using the
	// rounded per-flow average of 0.15 Mbps; the exact mean gives ≈100.9.
	almost(t, n, 0.15*100/m.MeanRate(), 1e-9, "flow count")
	if n < 100 || n > 102 {
		t.Fatalf("flow count %g implausible for the paper's setup", n)
	}
	if _, err := m.FlowsForUtilization(0.5, 0); err == nil {
		t.Error("zero capacity must be rejected")
	}
}

func TestStationaryGeneralMarkov(t *testing.T) {
	gen := PaperSource().TwoState()
	pi, err := gen.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[1], 0.011/0.111, 1e-9, "stationary ON probability")
	almost(t, pi[0]+pi[1], 1, 1e-9, "distribution sums to 1")

	mean, err := gen.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, mean, PaperSource().MeanRate(), 1e-9, "mean rate agreement")
}

func TestGeneralMarkovValidation(t *testing.T) {
	bad := MarkovSource{
		Rates: []float64{0, 1},
		Trans: [][]float64{{0.5, 0.4}, {0.1, 0.9}}, // first row sums to 0.9
	}
	if err := bad.Validate(); err == nil {
		t.Error("non-stochastic matrix must be rejected")
	}
	if _, err := bad.EffectiveBandwidth(1); err == nil {
		t.Error("effective bandwidth must propagate validation errors")
	}
}

func TestThreeStateMarkovBandwidthSandwich(t *testing.T) {
	// A three-level (video-like) source: idle, baseline, burst.
	src := MarkovSource{
		Rates: []float64{0, 1, 4},
		Trans: [][]float64{
			{0.90, 0.09, 0.01},
			{0.05, 0.90, 0.05},
			{0.10, 0.30, 0.60},
		},
	}
	mean, err := src.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, s := range []float64{0.01, 0.1, 1, 5} {
		eb, err := src.EffectiveBandwidth(s)
		if err != nil {
			t.Fatal(err)
		}
		if eb < mean-1e-9 || eb > src.PeakRate()+1e-9 {
			t.Fatalf("eb(%g)=%g outside [%g, %g]", s, eb, mean, src.PeakRate())
		}
		if i > 0 && eb < prev-1e-9 {
			t.Fatalf("eb not monotone at s=%g", s)
		}
		prev = eb
	}
}

func TestGeneralMarkovEBBAggregate(t *testing.T) {
	src := PaperSource().TwoState()
	e, err := src.EBBAggregate(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PaperSource().EBBAggregate(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Rho - want.Rho; d > 1e-6 || d < -1e-6 {
		t.Fatalf("general vs closed-form aggregate rate: %g vs %g", e.Rho, want.Rho)
	}
	if _, err := src.EBBAggregate(-1, 0.5); err == nil {
		t.Error("negative population must be rejected")
	}
	bad := MarkovSource{Rates: []float64{1}, Trans: [][]float64{{0.5}}}
	if _, err := bad.EBBAggregate(1, 0.5); err == nil {
		t.Error("invalid chain must be rejected")
	}
}
