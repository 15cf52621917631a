package sim

import (
	"math"
	"testing"

	"deltasched/internal/core"
)

// serveAll serves one budget and returns the per-flow amounts, indexed
// by flow id (the unit tests use ids below 8).
func serveAll(s Scheduler, budget float64) []float64 {
	out := make([]float64, 8)
	s.ServeInto(budget, out)
	return out
}

func TestFIFOServesInArrivalOrder(t *testing.T) {
	s := NewFIFO()
	s.Enqueue(0, 0, 4)
	s.Enqueue(1, 1, 4)
	s.Enqueue(0, 2, 4)
	out := serveAll(s, 6)
	if out[0] != 4 || out[1] != 2 {
		t.Fatalf("FIFO served %+v, want flow0=4 (slot 0) then flow1=2 (slot 1)", out)
	}
	if math.Abs(s.Backlog()-6) > 1e-9 {
		t.Fatalf("backlog %g, want 6", s.Backlog())
	}
}

func TestSPServesHighPriorityFirst(t *testing.T) {
	s := NewSP(map[core.FlowID]int{0: 1, 1: 5})
	s.Enqueue(0, 0, 4) // low priority, earlier
	s.Enqueue(1, 3, 4) // high priority, later
	out := serveAll(s, 5)
	if out[1] != 4 || out[0] != 1 {
		t.Fatalf("SP served %+v, want the high-priority flow drained first", out)
	}
}

func TestBMUXStarvesLowFlow(t *testing.T) {
	s := NewBMUX(0)
	s.Enqueue(0, 0, 10)
	s.Enqueue(1, 5, 3)
	s.Enqueue(2, 6, 3)
	out := serveAll(s, 6)
	if out[0] != 0 || out[1] != 3 || out[2] != 3 {
		t.Fatalf("BMUX served %+v, want all cross traffic before the low flow", out)
	}
	out = serveAll(s, 100)
	if out[0] != 10 {
		t.Fatalf("low flow eventually served: got %+v", out)
	}
}

func TestEDFServesByDeadline(t *testing.T) {
	s := NewEDF(map[core.FlowID]float64{0: 10, 1: 2})
	s.Enqueue(0, 0, 4) // deadline 10
	s.Enqueue(1, 3, 4) // deadline 5: earlier despite later arrival
	out := serveAll(s, 5)
	if out[1] != 4 || out[0] != 1 {
		t.Fatalf("EDF served %+v, want the tighter deadline first", out)
	}
}

func TestEDFEqualDeadlinesIsFIFO(t *testing.T) {
	edf := NewEDF(map[core.FlowID]float64{0: 7, 1: 7})
	fifo := NewFIFO()
	for _, s := range []Scheduler{edf, fifo} {
		s.Enqueue(0, 0, 3)
		s.Enqueue(1, 1, 3)
		s.Enqueue(0, 2, 3)
	}
	for i := 0; i < 3; i++ {
		oe := serveAll(edf, 3)
		of := serveAll(fifo, 3)
		for f := core.FlowID(0); f <= 1; f++ {
			if math.Abs(oe[f]-of[f]) > 1e-9 {
				t.Fatalf("round %d: EDF %+v differs from FIFO %+v", i, oe, of)
			}
		}
	}
}

func TestPrecedenceWorkConserving(t *testing.T) {
	s := NewFIFO()
	s.Enqueue(0, 0, 3)
	out := serveAll(s, 10)
	if out[0] != 3 {
		t.Fatalf("served %+v, want everything (work conservation)", out)
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog %g after full drain", s.Backlog())
	}
	// Serving an empty queue is a no-op.
	out = serveAll(s, 10)
	if len(out) != 0 && out[0] != 0 {
		t.Fatalf("served from empty queue: %+v", out)
	}
}

func TestGPSProportionalSharing(t *testing.T) {
	g, err := NewGPS(map[core.FlowID]float64{0: 1, 1: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Enqueue(0, 0, 100)
	g.Enqueue(1, 0, 100)
	out := serveAll(g, 8)
	if math.Abs(out[0]-2) > 1e-9 || math.Abs(out[1]-6) > 1e-9 {
		t.Fatalf("GPS shares %+v, want 2 and 6 (weights 1:3)", out)
	}
}

func TestGPSRedistributesUnusedShare(t *testing.T) {
	g, err := NewGPS(map[core.FlowID]float64{0: 1, 1: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Enqueue(0, 0, 1) // tiny queue
	g.Enqueue(1, 0, 100)
	out := serveAll(g, 10)
	if math.Abs(out[0]-1) > 1e-9 || math.Abs(out[1]-9) > 1e-9 {
		t.Fatalf("GPS with early-emptying flow served %+v, want 1 and 9 (work conserving)", out)
	}
}

func TestGPSValidation(t *testing.T) {
	if _, err := NewGPS(nil); err == nil {
		t.Error("empty weights must be rejected")
	}
	if _, err := NewGPS(map[core.FlowID]float64{0: -1}); err == nil {
		t.Error("negative weight must be rejected")
	}
}

func TestGPSIsNotDeltaScheduler(t *testing.T) {
	// The paper's argument that GPS is not a Δ-scheduler, made executable:
	// whether a later flow-1 arrival overtakes an earlier flow-0 arrival
	// depends on the backlog of a third flow, so no constant Δ_{0,1} can
	// exist. Scenario A: flow 2 idle → flow 1's arrival at slot 1 finishes
	// after flow 0's slot-0 arrival. Scenario B: flow 2 heavily backlogged →
	// the service rate of flow 0 drops and the same flow-1 arrival now
	// finishes at the same time or earlier relative to flow 0's progress.
	run := func(withThird bool) (f0Done, f1Done int) {
		g, err := NewGPS(map[core.FlowID]float64{0: 1, 1: 1, 2: 8})
		if err != nil {
			t.Fatal(err)
		}
		g.Enqueue(0, 0, 10)
		if withThird {
			g.Enqueue(2, 0, 1000)
		}
		served0, served1 := 0.0, 0.0
		f0Done, f1Done = -1, -1
		for slot := 0; slot < 400; slot++ {
			if slot == 1 {
				g.Enqueue(1, 1, 2)
			}
			out := serveAll(g, 10)
			served0 += out[0]
			served1 += out[1]
			if f0Done < 0 && served0 >= 10-1e-9 {
				f0Done = slot
			}
			if f1Done < 0 && slot >= 1 && served1 >= 2-1e-9 {
				f1Done = slot
			}
			if f0Done >= 0 && f1Done >= 0 {
				return f0Done, f1Done
			}
		}
		t.Fatal("queues did not drain")
		return
	}
	f0A, f1A := run(false)
	f0B, f1B := run(true)
	// Without the third flow, flow 0 finishes no later than flow 1; with a
	// busy third flow the completion order relationship changes.
	ordA := f0A <= f1A
	ordB := f0B <= f1B
	if ordA == ordB {
		t.Fatalf("expected the third flow's backlog to flip precedence: A=(%d,%d) B=(%d,%d)",
			f0A, f1A, f0B, f1B)
	}
}

func TestPrecedenceIgnoresNonPositiveEnqueue(t *testing.T) {
	s := NewFIFO()
	s.Enqueue(0, 0, 0)
	s.Enqueue(0, 0, -3)
	if s.Backlog() != 0 {
		t.Fatalf("backlog %g after vacuous enqueues", s.Backlog())
	}
	for f, v := range serveAll(s, 5) {
		if v != 0 {
			t.Fatalf("served %g bits of flow %d from an empty scheduler", v, f)
		}
	}
}

func TestGPSSingleFlowGetsFullRate(t *testing.T) {
	g, err := NewGPS(map[core.FlowID]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Enqueue(0, 0, 10)
	out := serveAll(g, 4)
	if out[0] != 4 {
		t.Fatalf("single backlogged flow should get the full link: %+v", out)
	}
}

func TestGPSUnknownFlowDefaultsToWeightOne(t *testing.T) {
	g, err := NewGPS(map[core.FlowID]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Enqueue(0, 0, 100)
	g.Enqueue(7, 0, 100) // never declared: defaults to weight 1
	out := serveAll(g, 10)
	if math.Abs(out[0]-5) > 1e-9 || math.Abs(out[7]-5) > 1e-9 {
		t.Fatalf("default weight should split evenly: %+v", out)
	}
}

func TestDRRSingleFlow(t *testing.T) {
	d, err := NewDRR(map[core.FlowID]float64{0: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Enqueue(0, 0, 7)
	out := serveAll(d, 10)
	if out[0] != 7 {
		t.Fatalf("single flow should drain fully: %+v", out)
	}
	if d.Backlog() != 0 {
		t.Fatalf("backlog %g after drain", d.Backlog())
	}
}
