package envelope

import (
	"errors"
	"fmt"
	"math"
)

// MMOO is the paper's discrete-time Markov-modulated on-off source
// (Section V): a two-state Markov chain (OFF=1, ON=2) that emits Peak data
// units per slot while ON and nothing while OFF. P11 is the OFF→OFF
// self-transition probability and P22 the ON→ON one, so the transition
// probabilities of the paper are p12 = 1−P11 (OFF→ON) and p21 = 1−P22
// (ON→OFF). The paper assumes p12 + p21 <= 1 (positively correlated,
// bursty sources).
type MMOO struct {
	Peak float64 // data emitted per slot in the ON state
	P11  float64 // P(OFF→OFF)
	P22  float64 // P(ON→ON)
}

// PaperSource returns the traffic parameters used in all numerical
// examples of the paper: P = 1.5 kbit per 1 ms slot (peak rate 1.5 Mbps),
// P11 = 0.989, P22 = 0.9, i.e. a mean rate of ≈0.15 Mbps per flow.
func PaperSource() MMOO {
	return MMOO{Peak: 1.5, P11: 0.989, P22: 0.9}
}

// Validate checks the chain parameters, including the paper's burstiness
// assumption p12 + p21 <= 1.
func (m MMOO) Validate() error {
	if m.Peak <= 0 || math.IsNaN(m.Peak) || math.IsInf(m.Peak, 0) {
		return fmt.Errorf("envelope: MMOO peak must be positive, got %g", m.Peak)
	}
	if !(m.P11 >= 0 && m.P11 <= 1 && m.P22 >= 0 && m.P22 <= 1) { // also rejects NaN
		return fmt.Errorf("envelope: MMOO probabilities out of [0,1]: P11=%g, P22=%g", m.P11, m.P22)
	}
	if p12, p21 := 1-m.P11, 1-m.P22; p12+p21 > 1+1e-12 {
		return fmt.Errorf("envelope: MMOO requires p12+p21 <= 1, got %g", p12+p21)
	}
	return nil
}

// OnProbability returns the stationary probability of the ON state,
// p12 / (p12 + p21).
func (m MMOO) OnProbability() float64 {
	p12, p21 := 1-m.P11, 1-m.P22
	if p12+p21 == 0 {
		return 0 // absorbing in whichever state it starts; treat as silent
	}
	return p12 / (p12 + p21)
}

// MeanRate returns the stationary mean rate Peak·P(ON) per slot.
func (m MMOO) MeanRate() float64 { return m.Peak * m.OnProbability() }

// PeakRate returns the peak rate per slot.
func (m MMOO) PeakRate() float64 { return m.Peak }

// EffectiveBandwidth returns the effective bandwidth
//
//	eb(s) = (1/s)·log λ(s),
//
// where λ(s) is the Perron root of [[p11, p12·e^{sP}], [p21, p22·e^{sP}]]
// (the paper's closed form in Section V):
//
//	λ(s) = ½·( p11 + p22·e^{sP} + sqrt( (p11+p22·e^{sP})² − 4(p11+p22−1)·e^{sP} ) ).
//
// eb is non-decreasing in s, with eb(0+) = MeanRate and eb(∞) = Peak.
func (m MMOO) EffectiveBandwidth(s float64) (float64, error) {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 0, fmt.Errorf("envelope: effective bandwidth needs s > 0, got %g", s)
	}
	esp := math.Exp(s * m.Peak)
	if math.IsInf(esp, 1) {
		return m.Peak, nil // saturated at the peak rate
	}
	tr := m.P11 + m.P22*esp
	det := (m.P11 + m.P22 - 1) * esp
	disc := tr*tr - 4*det
	if disc < 0 {
		disc = 0 // numeric noise: the Perron root of a nonnegative matrix is real
	}
	lambda := (tr + math.Sqrt(disc)) / 2
	return math.Log(lambda) / s, nil
}

// EBBAggregate returns the EBB characterization of an aggregate of n
// statistically independent copies of the source at decay parameter s:
// A ∼ (M=1, ρ=n·eb(s), α=s), the form used in the paper's Section V.
// n may be fractional: the analysis only consumes the aggregate rate, and
// the examples sweep utilization continuously.
func (m MMOO) EBBAggregate(n, s float64) (EBB, error) {
	if err := m.Validate(); err != nil {
		return EBB{}, err
	}
	if n < 0 {
		return EBB{}, fmt.Errorf("envelope: aggregate size must be >= 0, got %g", n)
	}
	eb, err := m.EffectiveBandwidth(s)
	if err != nil {
		return EBB{}, err
	}
	return EBB{M: 1, Rho: n * eb, Alpha: s}, nil
}

// EBMemo prices a fixed MMOO source with a one-entry effective-bandwidth
// cache. The α-sweeps of internal/core evaluate the through and the
// cross aggregate of the *same* source at the same decay s back to back
// — EffectiveBandwidth(s) does not depend on the flow count — so the
// second (and any further) Perron-root evaluation at an α becomes a
// lookup: each α is priced once per sweep, not once per aggregate. The
// source is validated once at construction, removing the per-call
// revalidation of MMOO.EBBAggregate from the sweep as well.
//
// An EBMemo is not safe for concurrent use; sweep workers should each
// own one (they are cheap to create).
type EBMemo struct {
	m      MMOO
	lastS  float64
	lastEB float64
	primed bool
}

// NewEBMemo validates the source and returns a memoizing pricer.
func NewEBMemo(m MMOO) (*EBMemo, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &EBMemo{m: m}, nil
}

// Source returns the wrapped model.
func (c *EBMemo) Source() MMOO { return c.m }

// EffectiveBandwidth returns m.EffectiveBandwidth(s), cached for
// consecutive calls with equal s.
func (c *EBMemo) EffectiveBandwidth(s float64) (float64, error) {
	if c.primed && s == c.lastS {
		return c.lastEB, nil
	}
	eb, err := c.m.EffectiveBandwidth(s)
	if err != nil {
		return 0, err
	}
	c.lastS, c.lastEB, c.primed = s, eb, true
	return eb, nil
}

// EBBAggregate mirrors MMOO.EBBAggregate through the cache: n iid copies
// at decay s yield A ∼ (M=1, ρ=n·eb(s), α=s).
func (c *EBMemo) EBBAggregate(n, s float64) (EBB, error) {
	if n < 0 {
		return EBB{}, fmt.Errorf("envelope: aggregate size must be >= 0, got %g", n)
	}
	eb, err := c.EffectiveBandwidth(s)
	if err != nil {
		return EBB{}, err
	}
	return EBB{M: 1, Rho: n * eb, Alpha: s}, nil
}

// FlowsForUtilization returns the number of flows n such that n·MeanRate
// equals util·capacity — how the paper translates a utilization target
// into a flow count.
func (m MMOO) FlowsForUtilization(util, capacity float64) (float64, error) {
	mean := m.MeanRate()
	if mean <= 0 {
		return 0, errors.New("envelope: source has zero mean rate")
	}
	if util < 0 || capacity <= 0 {
		return 0, fmt.Errorf("envelope: need util >= 0 and capacity > 0 (util=%g, capacity=%g)", util, capacity)
	}
	return util * capacity / mean, nil
}
