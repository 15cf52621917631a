package sim

import (
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
	"deltasched/internal/traffic"
)

func TestSCEDValidation(t *testing.T) {
	if _, err := NewSCED(nil); err == nil {
		t.Error("empty curves must be rejected")
	}
	if _, err := NewSCED(map[core.FlowID]RateLatencySpec{0: {Rate: 0}}); err == nil {
		t.Error("zero rate must be rejected")
	}
	if _, err := NewSCED(map[core.FlowID]RateLatencySpec{0: {Rate: 1, Latency: -1}}); err == nil {
		t.Error("negative latency must be rejected")
	}
}

func TestSCEDSingleFullRateFlowIsFIFO(t *testing.T) {
	// One flow with S = β_{C, 0}: deadlines order by arrival — FIFO.
	s, err := NewSCED(map[core.FlowID]RateLatencySpec{0: {Rate: 10, Latency: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(0, 0, 15)
	s.Enqueue(0, 1, 5)
	out := serveAll(s, 10)
	if out[0] != 10 {
		t.Fatalf("served %+v, want 10 (work conserving)", out)
	}
	if math.Abs(s.Backlog()-10) > 1e-9 {
		t.Fatalf("backlog %g, want 10", s.Backlog())
	}
}

// TestSCEDGuaranteesServiceCurves is the SCED schedulability theorem made
// empirical: with Σ R_j <= C, every flow's departures dominate its
// A_j ∗ S_j lower bound at all times, even under bursty competing traffic.
func TestSCEDGuaranteesServiceCurves(t *testing.T) {
	const (
		c     = 12.0
		slots = 4000
	)
	curves := map[core.FlowID]RateLatencySpec{
		0: {Rate: 5, Latency: 3},
		1: {Rate: 4, Latency: 10},
		2: {Rate: 3, Latency: 1},
	}
	s, err := NewSCED(curves)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	m := envelope.MMOO{Peak: 6, P11: 0.9, P22: 0.8}
	srcs := map[core.FlowID]traffic.Source{}
	for f := core.FlowID(0); f <= 2; f++ {
		src, err := traffic.NewMMOO(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = src
	}

	arr := map[core.FlowID][]float64{}
	dep := map[core.FlowID][]float64{}
	cumA := map[core.FlowID]float64{}
	cumD := map[core.FlowID]float64{}
	out := make([]float64, 3)
	for slot := 0; slot < slots; slot++ {
		for f := core.FlowID(0); f <= 2; f++ {
			a := srcs[f].Next()
			cumA[f] += a
			s.Enqueue(f, slot, a)
		}
		clear(out)
		s.ServeInto(c, out)
		for f := core.FlowID(0); f <= 2; f++ {
			cumD[f] += out[f]
			arr[f] = append(arr[f], cumA[f])
			dep[f] = append(dep[f], cumD[f])
		}
	}

	// Check D_j(t) >= min_{s<=t} A_j(s) + S_j(t−s) on a sampled grid.
	for f := core.FlowID(0); f <= 2; f++ {
		cv := curves[f]
		for ti := 50; ti < slots; ti += 37 {
			bound := math.Inf(1)
			for si := 0; si <= ti; si += 3 {
				aPrev := 0.0
				if si > 0 {
					aPrev = arr[f][si-1]
				}
				svc := cv.Rate * math.Max(0, float64(ti-si)-cv.Latency)
				if v := aPrev + svc; v < bound {
					bound = v
				}
			}
			// One slot of quantization slack: slotted service can lag the
			// continuous-time guarantee by at most C within a slot.
			if dep[f][ti] < bound-cv.Rate-1e-6 {
				t.Fatalf("flow %d at slot %d: departures %g below service-curve bound %g",
					f, ti, dep[f][ti], bound)
			}
		}
	}
}

func TestSCEDApproachesEDFForHugeRates(t *testing.T) {
	// With R_j → ∞ the SCED deadline degenerates to arrival + latency:
	// pure EDF. Compare drain order against the EDF scheduler.
	mk := func() (Scheduler, Scheduler) {
		sced, err := NewSCED(map[core.FlowID]RateLatencySpec{
			0: {Rate: 1e9, Latency: 4},
			1: {Rate: 1e9, Latency: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		edf := NewEDF(map[core.FlowID]float64{0: 4, 1: 1})
		return sced, edf
	}
	sced, edf := mk()
	for _, s := range []Scheduler{sced, edf} {
		s.Enqueue(0, 0, 6)
		s.Enqueue(1, 2, 6)
	}
	for round := 0; round < 4; round++ {
		a := serveAll(sced, 3)
		b := serveAll(edf, 3)
		for f := core.FlowID(0); f <= 1; f++ {
			if math.Abs(a[f]-b[f]) > 1e-9 {
				t.Fatalf("round %d: SCED %+v differs from EDF %+v", round, a, b)
			}
		}
	}
}

func TestSCEDDelayBoundFromCalculus(t *testing.T) {
	// End-to-end use: a leaky-bucket flow scheduled by SCED with curve S
	// has worst-case delay h(E, S); the simulator must respect it.
	env := minplus.Affine(2, 20)
	spec := RateLatencySpec{Rate: 5, Latency: 3}
	svc := minplus.RateLatency(spec.Rate, spec.Latency)
	analytic, err := minplus.HDev(env, svc)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSCED(map[core.FlowID]RateLatencySpec{
		0: spec,
		1: {Rate: 6, Latency: 0}, // competing flow, Σ rates <= C... (5+6=11 <= 12)
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewGreedy(env)
	if err != nil {
		t.Fatal(err)
	}
	node := &SingleNode{C: 12, Sched: s, Sources: map[core.FlowID]traffic.Source{
		0: g,
		1: traffic.CBR{Rate: 5.5},
	}}
	recs, err := node.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := recs[0].Distribution().Max()
	if err != nil {
		t.Fatal(err)
	}
	if float64(mx) > analytic+2 {
		t.Fatalf("measured delay %d exceeds the service-curve bound %g", mx, analytic)
	}
}
