package sim

import (
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
	"deltasched/internal/traffic"
)

func TestNonPreemptiveValidation(t *testing.T) {
	if _, err := NewNonPreemptive(nil, 1); err == nil {
		t.Error("nil inner scheduler must be rejected")
	}
	if _, err := NewNonPreemptive(NewFIFO(), 0); err == nil {
		t.Error("zero packet size must be rejected")
	}
	if _, err := NewNonPreemptive(NewFIFO(), math.Inf(1)); err == nil {
		t.Error("infinite packet size must be rejected")
	}
}

func TestNonPreemptiveFinishesCommittedPacket(t *testing.T) {
	// A low-priority packet in transmission cannot be interrupted by a
	// later high-priority arrival — the defining non-preemption effect.
	inner := NewSP(map[core.FlowID]int{0: 1, 1: 5})
	s, err := NewNonPreemptive(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(0, 0, 4) // low priority packet
	out := serveAll(s, 2)
	if out[0] != 2 {
		t.Fatalf("packet should start transmitting: %+v", out)
	}
	s.Enqueue(1, 1, 4) // high priority arrives mid-transmission
	out = serveAll(s, 2)
	if out[0] != 2 || out[1] != 0 {
		t.Fatalf("committed packet must finish before preemption: %+v", out)
	}
	out = serveAll(s, 4)
	if out[1] != 4 {
		t.Fatalf("high priority served after the packet completes: %+v", out)
	}
}

func TestNonPreemptiveMatchesFluidForTinyPackets(t *testing.T) {
	// With packet size → 0 the packetized scheduler converges to the fluid
	// one: identical MMOO traffic must give nearly identical delays.
	run := func(mk func() Scheduler) float64 {
		m := envelope.PaperSource()
		rng := rand.New(rand.NewSource(5))
		through, err := traffic.NewMMOOAggregate(m, 15, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross, err := traffic.NewMMOOAggregate(m, 45, rng)
		if err != nil {
			t.Fatal(err)
		}
		node := &SingleNode{C: 12, Sched: mk(), Sources: map[core.FlowID]traffic.Source{
			0: through, 1: cross,
		}}
		recs, err := node.Run(30000)
		if err != nil {
			t.Fatal(err)
		}
		q, err := recs[0].Distribution().Quantile(0.999)
		if err != nil {
			t.Fatal(err)
		}
		return float64(q)
	}
	fluid := run(func() Scheduler { return NewFIFO() })
	pkt := run(func() Scheduler {
		s, err := NewNonPreemptive(NewFIFO(), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	if math.Abs(fluid-pkt) > 1 {
		t.Fatalf("tiny packets should match fluid: fluid p99.9=%g, packetized p99.9=%g", fluid, pkt)
	}
}

func TestNonPreemptiveDelayPenaltyBounded(t *testing.T) {
	// EDF with large packets: the extra delay versus fluid is bounded by
	// roughly one packet transmission time plus quantization.
	run := func(pktSize float64) float64 {
		m := envelope.PaperSource()
		rng := rand.New(rand.NewSource(6))
		through, err := traffic.NewMMOOAggregate(m, 15, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross, err := traffic.NewMMOOAggregate(m, 45, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched Scheduler = NewEDF(map[core.FlowID]float64{0: 3, 1: 30})
		if pktSize > 0 {
			s, err := NewNonPreemptive(sched.(*Precedence), pktSize)
			if err != nil {
				t.Fatal(err)
			}
			sched = s
		}
		node := &SingleNode{C: 12, Sched: sched, Sources: map[core.FlowID]traffic.Source{
			0: through, 1: cross,
		}}
		recs, err := node.Run(30000)
		if err != nil {
			t.Fatal(err)
		}
		q, err := recs[0].Distribution().Quantile(0.999)
		if err != nil {
			t.Fatal(err)
		}
		return float64(q)
	}
	fluid := run(0)
	pkt := run(6) // packet takes half a slot at C=12
	if pkt < fluid-1e-9 {
		t.Fatalf("packetization cannot reduce delays: fluid %g vs packetized %g", fluid, pkt)
	}
	if pkt > fluid+3 {
		t.Fatalf("packetization penalty too large: fluid %g vs packetized %g", fluid, pkt)
	}
}

func TestDRRValidation(t *testing.T) {
	if _, err := NewDRR(nil); err == nil {
		t.Error("empty quanta must be rejected")
	}
	if _, err := NewDRR(map[core.FlowID]float64{0: -1}); err == nil {
		t.Error("negative quantum must be rejected")
	}
	if _, err := NewDRR(map[core.FlowID]float64{0: 1, -2: 1}); err == nil {
		t.Error("negative flow id must be rejected: ids index the dense state")
	}
}

func TestDRRFairSharing(t *testing.T) {
	d, err := NewDRR(map[core.FlowID]float64{0: 1, 1: 3})
	if err != nil {
		t.Fatal(err)
	}
	d.Enqueue(0, 0, 1000)
	d.Enqueue(1, 0, 1000)
	var total [2]float64
	for i := 0; i < 50; i++ {
		out := serveAll(d, 8)
		total[0] += out[0]
		total[1] += out[1]
	}
	// Long-run shares follow the quanta 1:3.
	if math.Abs(total[0]-100) > 10 || math.Abs(total[1]-300) > 10 {
		t.Fatalf("DRR shares %+v, want ≈100:300", total)
	}
}

func TestDRRWorkConserving(t *testing.T) {
	d, err := NewDRR(map[core.FlowID]float64{0: 1, 1: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Enqueue(0, 0, 2) // tiny queue
	d.Enqueue(1, 0, 100)
	out := serveAll(d, 10)
	sum := out[0] + out[1]
	if math.Abs(sum-10) > 1e-9 {
		t.Fatalf("DRR must be work conserving: served %g of 10 (%+v)", sum, out)
	}
	if out[0] != 2 {
		t.Fatalf("emptied flow should have been fully drained: %+v", out)
	}
	if d.Backlog() != 92 { // 2+100 enqueued, 10 served
		t.Fatalf("backlog %g, want 92", d.Backlog())
	}
}

func TestDRRResumesInterruptedVisit(t *testing.T) {
	// A visit cut by the slot boundary must not re-add the quantum.
	d, err := NewDRR(map[core.FlowID]float64{0: 10, 1: 10})
	if err != nil {
		t.Fatal(err)
	}
	d.Enqueue(0, 0, 100)
	d.Enqueue(1, 0, 100)
	out1 := serveAll(d, 4) // flow 0's visit interrupted at 4 of 10
	out2 := serveAll(d, 6) // resumes: 6 more for flow 0 completes its quantum
	if out1[0] != 4 || out2[0] != 6 {
		t.Fatalf("interrupted visit mishandled: %+v then %+v", out1, out2)
	}
	out3 := serveAll(d, 10) // now flow 1's turn
	if out3[1] != 10 {
		t.Fatalf("round robin should move to flow 1: %+v", out3)
	}
}

func TestTandemPerNodeRecording(t *testing.T) {
	m := envelope.PaperSource()
	rng := rand.New(rand.NewSource(8))
	through, err := traffic.NewMMOOAggregate(m, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	cross := make([]traffic.Source, 3)
	for i := range cross {
		cs, err := traffic.NewMMOOAggregate(m, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		cross[i] = cs
	}
	tan := &Tandem{C: 18, Through: through, Cross: cross,
		MakeSched:     func(int) Scheduler { return NewFIFO() },
		RecordPerNode: true}
	rec, stats, err := tan.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	per := tan.PerNode()
	if len(per) != 3 {
		t.Fatalf("expected 3 per-node recorders, got %d", len(per))
	}
	// Flow conservation along the path: node i+1 sees exactly node i's
	// departures; the last node's departures equal the e2e departures.
	if math.Abs(per[0].MeanRate()-stats.ThroughArrived/20000) > 1e-9 {
		t.Error("node 1 arrivals should equal external through arrivals")
	}
	for i := 0; i+1 < 3; i++ {
		dep := per[i].MeanRate()*20000 - per[i].Backlog()
		arrNext := per[i+1].MeanRate() * 20000
		if math.Abs(dep-arrNext) > 1e-6 {
			t.Errorf("node %d departures %g != node %d arrivals %g", i+1, dep, i+2, arrNext)
		}
	}
	// The e2e max delay cannot exceed the sum of per-node max delays
	// (delays decompose across the tandem).
	e2eMax, err := rec.Distribution().Max()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range per {
		mx, err := r.Distribution().Max()
		if err != nil {
			t.Fatal(err)
		}
		sum += mx
	}
	if e2eMax > sum {
		t.Errorf("e2e max delay %d exceeds the per-node sum %d", e2eMax, sum)
	}
}
