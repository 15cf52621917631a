// Package traffic provides discrete-time traffic sources for the network
// simulator: the paper's Markov-modulated on-off flows, constant bit rate
// sources, aggregates, and greedy (envelope-tracing) adversaries used by
// the Theorem 2 tightness experiments.
//
// A source emits a non-negative amount of data at each slot; cumulative
// emissions over [0, t) form the arrival process A(t) of the paper.
package traffic

import (
	"errors"
	"fmt"

	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
	"deltasched/internal/randx"
)

// Source generates per-slot arrivals.
type Source interface {
	// Next returns the amount of data arriving in the current slot and
	// advances the source to the next slot.
	Next() float64
}

// BlockSource is the batch seam of the simulator's slot loop: NextBlock
// fills dst with the next len(dst) slots' arrivals, producing exactly the
// values — and consuming any underlying randomness in exactly the order —
// that len(dst) successive Next calls would. The contract is bit-identity,
// not merely equality in distribution, because seeded sample paths are
// pinned by golden fixtures.
//
// Callers must not assume more than that: when several sources share one
// RNG (the simulator's default wiring), draining a whole block from one
// source before the next reorders the shared stream, so such callers must
// interleave per-slot (see sim.Tandem's IndependentSources flag).
type BlockSource interface {
	Source
	// NextBlock is equivalent to: for i := range dst { dst[i] = s.Next() }.
	NextBlock(dst []float64)
}

// FillBlock drains len(dst) slots from src, using NextBlock when
// implemented and falling back to per-slot Next calls otherwise.
func FillBlock(src Source, dst []float64) {
	if bs, ok := src.(BlockSource); ok {
		bs.NextBlock(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Next()
	}
}

// MMOO is a two-state Markov-modulated on-off source (paper Section V).
// The initial state is drawn from the stationary distribution so that
// finite simulations match the analysis without a warm-up phase.
type MMOO struct {
	model envelope.MMOO
	rng   randx.Uniform
	fast  *randx.Rand // non-nil when rng is the concrete devirtualized RNG
	on    bool
}

// NewMMOO validates the chain and seeds the state from its stationary
// distribution using the provided RNG. When rng is a *randx.Rand the
// source runs devirtualized (no interface dispatch per draw) on a
// bit-identical stream.
func NewMMOO(m envelope.MMOO, rng randx.Uniform) (*MMOO, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("traffic: NewMMOO needs a uniform RNG")
	}
	fast, _ := rng.(*randx.Rand)
	return &MMOO{
		model: m,
		rng:   rng,
		fast:  fast,
		on:    rng.Float64() < m.OnProbability(),
	}, nil
}

// Next implements Source.
func (s *MMOO) Next() float64 {
	if s.fast != nil {
		return s.nextFast(s.fast)
	}
	out := 0.0
	if s.on {
		out = s.model.Peak
	}
	// Transition for the next slot.
	if s.on {
		s.on = s.rng.Float64() < s.model.P22
	} else {
		s.on = s.rng.Float64() >= s.model.P11
	}
	return out
}

// nextFast is Next on the concrete RNG: one branch merge apart (emit and
// transition share the state test), the float operations and the single
// Float64 draw per slot are identical, so the sample path is too.
func (s *MMOO) nextFast(r *randx.Rand) float64 {
	if s.on {
		s.on = r.Float64() < s.model.P22
		return s.model.Peak
	}
	s.on = r.Float64() >= s.model.P11
	return 0
}

// NextBlock implements BlockSource. On the concrete RNG the fill walks
// geometric state-runs — emitting Peak (or 0) while drawing the one
// transition uniform per slot — which keeps the stream identical while
// letting the branch predictor see the run structure.
func (s *MMOO) NextBlock(dst []float64) {
	r := s.fast
	if r == nil {
		for i := range dst {
			dst[i] = s.Next()
		}
		return
	}
	m := &s.model
	on := s.on
	for i := 0; i < len(dst); {
		if on {
			for i < len(dst) && on {
				dst[i] = m.Peak
				on = r.Float64() < m.P22
				i++
			}
		} else {
			for i < len(dst) && !on {
				dst[i] = 0
				on = r.Float64() >= m.P11
				i++
			}
		}
	}
	s.on = on
}

// CBR is a constant bit rate source.
type CBR struct {
	Rate float64
}

// Next implements Source.
func (s CBR) Next() float64 { return s.Rate }

// NextBlock implements BlockSource.
func (s CBR) NextBlock(dst []float64) {
	for i := range dst {
		dst[i] = s.Rate
	}
}

// Aggregate sums a set of sources (statistical multiplexing of flows into
// the through- or cross-traffic aggregates of the paper's Fig. 1).
type Aggregate struct {
	sources []Source
	// bank is non-nil when every member is an *MMOO with one model on
	// this one concrete RNG (NewMMOOAggregate's wiring). The slot then
	// steps the members' states as packed 0/1 flags in a single
	// randx.(*Rand).StepOnOff walk, with the model's float transition
	// probabilities turned into exact integer cuts. The member structs
	// are not advanced on this path, so a source handed to NewAggregate
	// must afterwards be driven only through the aggregate.
	bank       *randx.Rand
	on         []uint8
	stay, join uint64 // randx.Threshold of P22 and of P11
	// sums[k] is k Peaks added left to right: the float sum the
	// per-member += loop produces when k members are ON.
	sums []float64
}

// NewAggregate bundles the given sources.
func NewAggregate(sources ...Source) *Aggregate {
	a := &Aggregate{sources: sources}
	if len(sources) == 0 {
		return a
	}
	first, ok := sources[0].(*MMOO)
	if !ok || first.fast == nil {
		return a
	}
	on := make([]uint8, len(sources))
	for i, s := range sources {
		m, ok := s.(*MMOO)
		if !ok || m.fast != first.fast || m.model != first.model {
			return a
		}
		if m.on {
			on[i] = 1
		}
	}
	a.bank, a.on = first.fast, on
	a.stay, a.join = randx.Threshold(first.model.P22), randx.Threshold(first.model.P11)
	a.sums = make([]float64, len(sources)+1)
	for k := 1; k < len(a.sums); k++ {
		a.sums[k] = a.sums[k-1] + first.model.Peak
	}
	return a
}

// NewMMOOAggregate creates n iid MMOO flows sharing one RNG.
func NewMMOOAggregate(m envelope.MMOO, n int, rng randx.Uniform) (*Aggregate, error) {
	if n < 0 {
		return nil, fmt.Errorf("traffic: aggregate size must be >= 0, got %d", n)
	}
	srcs := make([]Source, 0, n)
	for i := 0; i < n; i++ {
		s, err := NewMMOO(m, rng)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	return NewAggregate(srcs...), nil
}

// Next implements Source.
func (a *Aggregate) Next() float64 {
	if a.bank != nil {
		return a.nextBank()
	}
	total := 0.0
	for _, s := range a.sources {
		total += s.Next()
	}
	return total
}

// nextBank is the generic loop on a bank: each member draws once in
// member order, as MMOO.Next does, and the ON members' Peaks are summed
// left to right (adding an OFF member's +0.0 is an identity).
func (a *Aggregate) nextBank() float64 {
	return a.sums[a.bank.StepOnOff(a.on, a.stay, a.join)]
}

// NextBlock implements BlockSource. The fill stays slot-major across
// members: the members share one RNG in the usual wiring, so a
// member-major fill would reorder the shared stream.
func (a *Aggregate) NextBlock(dst []float64) {
	if a.bank != nil {
		for i := range dst {
			dst[i] = a.nextBank()
		}
		return
	}
	for i := range dst {
		dst[i] = a.Next()
	}
}

// Size returns the number of bundled flows.
func (a *Aggregate) Size() int { return len(a.sources) }

// CountAggregate simulates n iid two-state MMOO flows as a single Markov
// chain on the number of currently-ON flows. Because the flows are iid,
// the ON-count k is a sufficient statistic for the aggregate: each slot
// emits k·Peak and the count evolves as
//
//	k' = Bin(k, P22) + Bin(n−k, 1−P11),
//
// i.e. the ON flows that stay ON plus the OFF flows that switch ON, two
// independent binomial draws. The per-slot arrival process is equal in
// distribution to NewMMOOAggregate's — exactly, not asymptotically — but
// costs O(1) RNG draws per slot instead of O(n), which dominates the
// simulator's slot loop at the paper's flow counts (210 flows in the
// Fig. 1 benchmark topology).
//
// The RNG *stream* necessarily differs from the per-source aggregate
// (two binomial draws consume different uniforms than n Bernoulli draws),
// so seeded runs are not sample-path-identical across the two modes; use
// NewMMOOAggregate when bit-exact legacy streams matter and this type
// when throughput does. Statistical parity — mean rate, per-slot
// variance, lag-1 autocovariance, stationary ON-count distribution — is
// pinned by the tests.
type CountAggregate struct {
	model envelope.MMOO
	rng   randx.Uniform
	fast  *randx.Rand // non-nil when rng is the concrete devirtualized RNG
	n     int
	k     int // flows currently ON
	// Fixed-p samplers with the (1−p)^n tables precomputed up to n: the
	// slot loop draws without touching exp/log (the draws stay
	// bit-identical to randx.Binomial).
	stay *randx.BinomialSampler // Bin(k, P22): ON flows that remain ON
	join *randx.BinomialSampler // Bin(n−k, 1−P11): OFF flows switching ON
}

// NewMMOOCountAggregate validates the chain and draws the initial ON
// count from the stationary distribution Bin(n, OnProbability), matching
// NewMMOOAggregate's warm start.
func NewMMOOCountAggregate(m envelope.MMOO, n int, rng randx.Uniform) (*CountAggregate, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("traffic: aggregate size must be >= 0, got %d", n)
	}
	if rng == nil {
		return nil, errors.New("traffic: NewMMOOCountAggregate needs a uniform RNG")
	}
	fast, _ := rng.(*randx.Rand)
	return &CountAggregate{
		model: m,
		rng:   rng,
		fast:  fast,
		n:     n,
		k:     randx.Binomial(rng, n, m.OnProbability()),
		stay:  randx.NewBinomialSampler(n, m.P22),
		join:  randx.NewBinomialSampler(n, 1-m.P11),
	}, nil
}

// Next implements Source.
func (a *CountAggregate) Next() float64 {
	out := float64(a.k) * a.model.Peak
	var stay, join int
	if a.fast != nil {
		stay = a.stay.SampleFast(a.fast, a.k)
		join = a.join.SampleFast(a.fast, a.n-a.k)
	} else {
		stay = a.stay.Sample(a.rng, a.k)
		join = a.join.Sample(a.rng, a.n-a.k)
	}
	a.k = stay + join
	return out
}

// NextBlock implements BlockSource.
func (a *CountAggregate) NextBlock(dst []float64) {
	if a.fast != nil {
		r := a.fast
		for i := range dst {
			dst[i] = float64(a.k) * a.model.Peak
			stay := a.stay.SampleFast(r, a.k)
			join := a.join.SampleFast(r, a.n-a.k)
			a.k = stay + join
		}
		return
	}
	for i := range dst {
		dst[i] = a.Next()
	}
}

// Size returns the number of modeled flows.
func (a *CountAggregate) Size() int { return a.n }

// OnCount returns the number of flows currently ON — the chain state,
// exposed for the parity tests.
func (a *CountAggregate) OnCount() int { return a.k }

// Greedy traces a deterministic envelope exactly: cumulative emissions
// after t slots equal E(t). It realizes the adversarial arrival pattern of
// the Theorem 2 necessity proof ("each flow k has arrivals such that
// A_k(t) = E_k(t)").
type Greedy struct {
	env  minplus.Curve
	slot int
	sent float64
}

// NewGreedy validates the envelope (non-decreasing, finite) and returns a
// greedy tracer.
func NewGreedy(env minplus.Curve) (*Greedy, error) {
	if !env.IsFinite() {
		return nil, errors.New("traffic: greedy source needs a finite envelope")
	}
	if !env.NonDecreasing() {
		return nil, errors.New("traffic: greedy source needs a non-decreasing envelope")
	}
	return &Greedy{env: env}, nil
}

// Next implements Source: the slot-0 emission is E(1) (the initial burst
// plus one slot's worth), and thereafter E(t+1) − E(t).
func (g *Greedy) Next() float64 {
	g.slot++
	target := g.env.Eval(float64(g.slot))
	out := target - g.sent
	if out < 0 {
		out = 0
	}
	g.sent += out
	return out
}

// NextBlock implements BlockSource (the envelope walk is deterministic, so
// the per-slot loop is already exact).
func (g *Greedy) NextBlock(dst []float64) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Delayed wraps a source, holding it silent for the first `start` slots —
// used to inject a tagged arrival at a chosen time t*.
type Delayed struct {
	Start int
	Src   Source

	slot int
}

// Next implements Source.
func (d *Delayed) Next() float64 {
	if d.slot < d.Start {
		d.slot++
		return 0
	}
	d.slot++
	return d.Src.Next()
}

// NextBlock implements BlockSource: the silent prefix is bulk-zeroed and
// the remainder delegated to the wrapped source's block path.
func (d *Delayed) NextBlock(dst []float64) {
	i := 0
	for i < len(dst) && d.slot < d.Start {
		dst[i] = 0
		d.slot++
		i++
	}
	if i < len(dst) {
		d.slot += len(dst) - i
		FillBlock(d.Src, dst[i:])
	}
}

// Pulse emits a single burst of the given size at slot Start and nothing
// otherwise.
type Pulse struct {
	Start int
	Size  float64

	slot int
}

// Next implements Source.
func (p *Pulse) Next() float64 {
	s := p.slot
	p.slot++
	if s == p.Start {
		return p.Size
	}
	return 0
}

// NextBlock implements BlockSource.
func (p *Pulse) NextBlock(dst []float64) {
	for i := range dst {
		dst[i] = p.Next()
	}
}

// Trace replays a recorded per-slot arrival sequence; past the end it
// emits nothing. Useful for feeding measured traffic into the simulator
// or for crafting exact adversarial patterns in tests.
type Trace struct {
	Data []float64

	pos int
}

// Next implements Source.
func (t *Trace) Next() float64 {
	if t.pos >= len(t.Data) {
		return 0
	}
	v := t.Data[t.pos]
	t.pos++
	if v < 0 {
		return 0
	}
	return v
}

// NextBlock implements BlockSource: a clamped copy of the recorded window
// plus a zero tail past the end of the trace.
func (t *Trace) NextBlock(dst []float64) {
	n := copy(dst, t.Data[min(t.pos, len(t.Data)):])
	t.pos += n
	for i := 0; i < n; i++ {
		if dst[i] < 0 {
			dst[i] = 0
		}
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// PeriodicOnOff is a deterministic on-off source: Rate per slot for On
// slots, then silent for Off slots, repeating, starting at phase Phase
// into the cycle. It is the deterministic counterpart of the MMOO source
// (worst-case burstiness for a given mean when phase-aligned).
type PeriodicOnOff struct {
	Rate  float64
	On    int
	Off   int
	Phase int

	slot int
}

// Next implements Source.
func (p *PeriodicOnOff) Next() float64 {
	period := p.On + p.Off
	if period <= 0 || p.On <= 0 {
		return 0
	}
	pos := (p.slot + p.Phase) % period
	if pos < 0 { // Go's % keeps the dividend's sign; a negative Phase counts back
		pos += period
	}
	p.slot++
	if pos < p.On {
		return p.Rate
	}
	return 0
}

// NextBlock implements BlockSource.
func (p *PeriodicOnOff) NextBlock(dst []float64) {
	for i := range dst {
		dst[i] = p.Next()
	}
}
