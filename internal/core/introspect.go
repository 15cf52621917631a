package core

import (
	"sync/atomic"

	"deltasched/internal/obs"
)

// OptProbe receives the optimizer's introspection counters: how many γ
// and α probes a bound cost, how often the memos saved a re-evaluation,
// how much inner-minimization and envelope work ran underneath. The
// runner installs one probe per process (backed by obs.Registry
// counters, so a -metrics-addr endpoint serves them live); nil fields
// discard their counts.
//
// The hot paths never touch the probe directly: they bump plain integer
// fields on their Scratch (or a local), and a single flush per top-level
// call batches the totals into these counters. Disabled telemetry
// therefore costs one atomic pointer load and a handful of integer
// increments per bound — the <2% envelope the benchmarks pin.
type OptProbe struct {
	DelayBoundCalls  *obs.Counter // top-level γ-optimized DelayBound solves
	GammaProbes      *obs.Counter // delayBoundAtGamma evaluations (grid + golden + final)
	GammaBatchProbes *obs.Counter // γ probes priced through the batched table-driven kernels
	GammaMemoHits    *obs.Counter // γ re-probes served from the Scratch memo
	InnerMinCalls    *obs.Counter // innerMinimize solves
	InnerCandidates  *obs.Counter // candidate breakpoints priced by innerMinimize
	EnvelopeSegs     *obs.Counter // envelope segments assembled and merged by pathBound
	AlphaSweeps      *obs.Counter // OptimizeAlphaFunc sweeps
	AlphaProbes      *obs.Counter // α evaluations priced (memo misses)
	AlphaMemoHits    *obs.Counter // α re-probes served from the sweep memo
	EDFBisections    *obs.Counter // EDF fixed-point evaluations of f
	AdditiveProbes   *obs.Counter // additive-analysis γ evaluations
}

// optProbe is the process-wide probe seam. An atomic pointer rather than
// a plain global so concurrent sweep workers can run while a probe is
// installed or removed.
var optProbe atomic.Pointer[OptProbe]

// SetOptProbe installs the process-wide optimizer probe; nil removes it.
// Counts accumulated while no probe is installed are discarded.
func SetOptProbe(p *OptProbe) { optProbe.Store(p) }

// optStats are the per-Scratch (single-goroutine) counters of one
// top-level solve, flushed in one batch so the sweep loops pay integer
// increments, not atomics.
type optStats struct {
	delayBoundCalls  int64
	gammaProbes      int64
	gammaBatchProbes int64
	gammaMemoHits    int64
	innerCalls       int64
	innerCands       int64
	envSegs          int64
}

// flushOptStats batches the accumulated counts into the installed probe
// (if any) and zeroes them.
func (s *Scratch) flushOptStats() {
	st := s.stats
	s.stats = optStats{}
	p := optProbe.Load()
	if p == nil {
		return
	}
	p.DelayBoundCalls.Add(st.delayBoundCalls)
	p.GammaProbes.Add(st.gammaProbes)
	p.GammaBatchProbes.Add(st.gammaBatchProbes)
	p.GammaMemoHits.Add(st.gammaMemoHits)
	p.InnerMinCalls.Add(st.innerCalls)
	p.InnerCandidates.Add(st.innerCands)
	p.EnvelopeSegs.Add(st.envSegs)
}
