package sim

import (
	"fmt"
	"math"

	"deltasched/internal/core"
)

// SCED (Service Curve Earliest Deadline, Cruz [8] in the paper's
// bibliography) assigns each flow a rate-latency service curve
// S_j = β_{R_j, T_j} and serves by earliest service-curve deadline: the
// chunk of flow j whose cumulative level reaches x must depart by
//
//	d(x) = min_{s <= a} { s + T_j + (x − A_j(s))/R_j },
//
// the pseudo-inverse of A_j ∗ S_j at x. If Σ_j R_j <= C, SCED guarantees
// every flow its service curve (the SCED schedulability theorem), which
// the tests verify empirically. SCED generalizes EDF (R_j → ∞, T_j = d*_j)
// and illustrates the paper's remark that some schedulers are natively
// specified through service curves rather than Δ constants.
type SCED struct {
	curves map[core.FlowID]RateLatencySpec
	state  map[core.FlowID]*scedFlowState
	q      chunkHeap
	back   float64
	seq    int
}

// RateLatencySpec is the per-flow service curve β_{Rate, Latency}.
type RateLatencySpec struct {
	Rate    float64
	Latency float64
}

type scedFlowState struct {
	cum  float64 // cumulative arrivals A_j
	mini float64 // min_{s <= now} ( s + T − A_j(s)/R )
	slot int     // last slot folded into mini
}

var _ Scheduler = (*SCED)(nil)

// NewSCED validates the per-flow service curves.
func NewSCED(curves map[core.FlowID]RateLatencySpec) (*SCED, error) {
	if len(curves) == 0 {
		return nil, fmt.Errorf("sim: SCED needs at least one flow curve")
	}
	cp := make(map[core.FlowID]RateLatencySpec, len(curves))
	for f, c := range curves {
		if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
			return nil, fmt.Errorf("sim: SCED rate for flow %d must be positive and finite, got %g", f, c.Rate)
		}
		if c.Latency < 0 || math.IsNaN(c.Latency) {
			return nil, fmt.Errorf("sim: SCED latency for flow %d must be >= 0, got %g", f, c.Latency)
		}
		cp[f] = c
	}
	return &SCED{curves: cp, state: make(map[core.FlowID]*scedFlowState)}, nil
}

// Name implements Scheduler.
func (s *SCED) Name() string { return "SCED" }

// Enqueue implements Scheduler: the chunk's deadline is the service-curve
// deadline of its *last* bit.
func (s *SCED) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	c, ok := s.curves[f]
	if !ok {
		// Flows without a declared curve default to a pure delay of 0 at
		// rate 1 — conservative and explicit is better, but dropping the
		// chunk would violate work conservation.
		c = RateLatencySpec{Rate: 1, Latency: 0}
		s.curves[f] = c
	}
	st, ok := s.state[f]
	if !ok {
		st = &scedFlowState{mini: c.Latency}
		s.state[f] = st
	}
	// Fold the candidate start points up to this slot into the running
	// minimum (A_j(s) is the cumulative level before slot s's arrivals).
	for st.slot < slot {
		st.slot++
		if cand := float64(st.slot) + c.Latency - st.cum/c.Rate; cand < st.mini {
			st.mini = cand
		}
	}
	st.cum += bits
	deadline := st.mini + st.cum/c.Rate
	s.seq++
	s.q.push(chunk{k1: deadline, k2: float64(slot), flow: f, bits: bits, seq: s.seq})
	s.back += bits
}

// ServeInto implements Scheduler.
func (s *SCED) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 && s.q.Len() > 0 {
		c := &s.q[0]
		take := min(budget, c.bits)
		out[c.flow] += take
		c.bits -= take
		s.back -= take
		budget -= take
		if c.bits <= 1e-12 {
			s.back += c.bits
			s.q.popMin()
		}
	}
	if s.back < 0 {
		s.back = 0
	}
}

// Backlog implements Scheduler.
func (s *SCED) Backlog() float64 { return s.back }

// QueueLen implements QueueLener: the number of queued chunks.
func (s *SCED) QueueLen() int { return s.q.Len() }
