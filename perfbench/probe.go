package main

import (
	"deltasched/internal/core"
	"deltasched/internal/obs"
)

// optCounters is the benchmark-owned optimizer probe: core batches its
// per-solve counts into these counters, and the benchmark reads them
// around each batch. The counts are a property of the inputs, so they
// repeat exactly from run to run.
type optCounters struct {
	probe *core.OptProbe
	named map[string]*obs.Counter
}

var benchProbe = newOptCounters()

func newOptCounters() *optCounters {
	r := obs.NewRegistry()
	named := map[string]*obs.Counter{}
	c := func(name string) *obs.Counter {
		ctr := r.Counter(name, name, nil)
		named[name] = ctr
		return ctr
	}
	return &optCounters{
		named: named,
		probe: &core.OptProbe{
			DelayBoundCalls:  c("core.delaybound.calls"),
			GammaProbes:      c("core.gamma.probes"),
			GammaBatchProbes: c("core.gamma.batch_probes"),
			GammaMemoHits:    c("core.gamma.memo_hits"),
			InnerMinCalls:    c("core.innermin.calls"),
			InnerCandidates:  c("core.innermin.candidates"),
			EnvelopeSegs:     c("envelope.segments"),
			AlphaSweeps:      c("core.alpha.sweeps"),
			AlphaProbes:      c("core.alpha.probes"),
			AlphaMemoHits:    c("core.alpha.memo_hits"),
			EDFBisections:    c("core.edf.bisections"),
			AdditiveProbes:   c("core.additive.probes"),
		},
	}
}

// snapshot reads every counter.
func (o *optCounters) snapshot() map[string]int64 {
	out := make(map[string]int64, len(o.named))
	for n, c := range o.named {
		out[n] = c.Load()
	}
	return out
}

// since returns the counts accumulated after the before snapshot.
func (o *optCounters) since(before map[string]int64) map[string]int64 {
	now := o.snapshot()
	for n, v := range before {
		now[n] -= v
	}
	return now
}
