package sim

// This file holds the DRR oracle: the map-based deficit round robin that
// the dense DRR in drr.go replaced, kept verbatim (modulo the type and
// constructor names) so FuzzDRRServe and the tandem parity tests can pin
// the rewrite to it bit for bit. Do not "fix" or modernize it: its value
// is that it is the old code.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/measure"
	"deltasched/internal/randx"
)

// refDRR is deficit round robin: flows are visited cyclically and each visit
// may transmit up to its accumulated quantum. Like GPS, DRR approximates
// fair sharing and is *not* a Δ-scheduler (precedence between two
// arrivals depends on the round-robin pointer and the deficit counters,
// i.e. on the random backlog history). It is included as a second
// executable example of a widely deployed non-Δ discipline.
type refDRR struct {
	quantum  map[core.FlowID]float64
	deficit  map[core.FlowID]float64
	queues   map[core.FlowID][]chunk
	active   []core.FlowID // round-robin list of backlogged flows
	next     int           // round-robin pointer into active
	midVisit bool          // a visit was interrupted by the slot boundary
	backlog  float64
}

var _ Scheduler = (*refDRR)(nil)

// newRefDRR validates and copies the per-flow quanta (bits added to a flow's
// deficit each round).
func newRefDRR(quantum map[core.FlowID]float64) (*refDRR, error) {
	if len(quantum) == 0 {
		return nil, fmt.Errorf("sim: DRR needs at least one flow quantum")
	}
	cp := make(map[core.FlowID]float64, len(quantum))
	for f, q := range quantum {
		if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("sim: DRR quantum for flow %d must be positive, got %g", f, q)
		}
		cp[f] = q
	}
	return &refDRR{
		quantum: cp,
		deficit: make(map[core.FlowID]float64),
		queues:  make(map[core.FlowID][]chunk),
	}, nil
}

// Name implements Scheduler.
func (d *refDRR) Name() string { return "DRR" }

// Enqueue implements Scheduler.
func (d *refDRR) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	if _, ok := d.quantum[f]; !ok {
		d.quantum[f] = 1
	}
	if len(d.queues[f]) == 0 {
		d.activate(f)
	}
	d.queues[f] = append(d.queues[f], chunk{bits: bits})
	d.backlog += bits
}

func (d *refDRR) activate(f core.FlowID) {
	for _, g := range d.active {
		if g == f {
			return
		}
	}
	d.active = append(d.active, f)
	// Keep activation order deterministic across map iteration.
	sort.Slice(d.active, func(i, j int) bool { return d.active[i] < d.active[j] })
}

// Serve implements Scheduler: cycle through backlogged flows, topping up
// deficits by one quantum per visit and draining up to the deficit.
func (d *refDRR) Serve(budget float64, out map[core.FlowID]float64) {
	guard := 0
	for budget > 1e-12 && len(d.active) > 0 {
		guard++
		if guard > 1<<20 {
			return // defensive: cannot happen with positive quanta
		}
		if d.next >= len(d.active) {
			d.next = 0
		}
		f := d.active[d.next]
		if !d.midVisit {
			d.deficit[f] += d.quantum[f]
		}
		d.midVisit = false
		spend := math.Min(budget, d.deficit[f])
		served := d.drain(f, spend)
		out[f] += served
		budget -= served
		d.deficit[f] -= served
		if len(d.queues[f]) == 0 {
			// Flow emptied: reset its deficit and remove from the round.
			d.deficit[f] = 0
			d.active = append(d.active[:d.next], d.active[d.next+1:]...)
			continue // next flow now occupies d.next
		}
		if budget <= 1e-12 && d.deficit[f] > 1e-12 {
			// Slot boundary interrupted the visit: resume it next slot
			// without topping the deficit up again.
			d.midVisit = true
			return
		}
		d.next++
	}
}

// ServeInto implements SliceServer: Serve's round-robin loop with a dense
// output slice, bit-identical per-flow amounts and deficit evolution.
func (d *refDRR) ServeInto(budget float64, out []float64) {
	guard := 0
	for budget > 1e-12 && len(d.active) > 0 {
		guard++
		if guard > 1<<20 {
			return // defensive: cannot happen with positive quanta
		}
		if d.next >= len(d.active) {
			d.next = 0
		}
		f := d.active[d.next]
		if !d.midVisit {
			d.deficit[f] += d.quantum[f]
		}
		d.midVisit = false
		spend := math.Min(budget, d.deficit[f])
		served := d.drain(f, spend)
		out[f] += served
		budget -= served
		d.deficit[f] -= served
		if len(d.queues[f]) == 0 {
			// Flow emptied: reset its deficit and remove from the round.
			d.deficit[f] = 0
			d.active = append(d.active[:d.next], d.active[d.next+1:]...)
			continue // next flow now occupies d.next
		}
		if budget <= 1e-12 && d.deficit[f] > 1e-12 {
			// Slot boundary interrupted the visit: resume it next slot
			// without topping the deficit up again.
			d.midVisit = true
			return
		}
		d.next++
	}
}

func (d *refDRR) drain(f core.FlowID, amount float64) float64 {
	q := d.queues[f]
	total := 0.0
	for i := range q {
		take := math.Min(amount-total, q[i].bits)
		q[i].bits -= take
		total += take
		if total >= amount-1e-15 {
			break
		}
	}
	keep := q[:0]
	for _, c := range q {
		if c.bits > 1e-12 {
			keep = append(keep, c)
		}
	}
	d.queues[f] = keep
	d.backlog -= total
	if d.backlog < 0 {
		d.backlog = 0
	}
	return total
}

// Backlog implements Scheduler.
func (d *refDRR) Backlog() float64 { return d.backlog }

// QueueLen implements QueueLener: queued chunks across all flows.
func (d *refDRR) QueueLen() int {
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}

// drrFuzzFlows is the flow-id range of FuzzDRRServe: flows 0-3 get
// quanta from the input, flows 4 and 5 are undeclared and take the
// default quantum of 1 on their first Enqueue.
const drrFuzzFlows = 6

// FuzzDRRServe drives the dense DRR and the map-based oracle through the
// same random sequence of Enqueue and ServeInto calls and requires
// bit-identical per-flow served amounts, Backlog and QueueLen after every
// call. The first four bytes set fractional quanta in [1/16, 16]; each
// later byte pair is one operation:
//
//	op%4 == 0: Enqueue(flow, slot, arg·1.37) — up to ~350 bits, so a
//	           drain's running total can stop one ulp short of its
//	           amount and keep walking past a partly served chunk
//	op%4 == 1: ServeInto(arg/9) — budgets from 0 to 28 bits, so visits
//	           are routinely cut by the slot boundary and flows
//	           activate while one is cut
//	op%4 == 2: Enqueue(flow, slot, (arg%100+1)·1e-14) — a chunk of at
//	           most 1e-12 bits, dropped by the next drain that sees it,
//	           typically queued behind a live head
//	op%4 == 3: advance the arrival slot; Enqueue of 0 or -arg bits (no-op)
func FuzzDRRServe(f *testing.F) {
	f.Add([]byte{16, 16, 16, 16, 0, 40, 4, 40, 1, 30, 1, 90, 1, 200})
	// Fractional quanta, tiny chunks behind a live head, interrupted visits.
	f.Add([]byte{5, 37, 1, 255, 0, 200, 2, 7, 6, 50, 1, 3, 2, 99, 1, 1, 8, 120, 1, 44, 1, 255, 1, 255})
	// Lower-id flows activating while a higher-id visit is cut.
	f.Add([]byte{63, 63, 63, 63, 1, 10, 1, 18, 0, 10, 1, 30, 4, 10, 1, 200, 1, 200})
	rng := randx.NewRand(29)
	long := make([]byte, 2048)
	for i := range long {
		long[i] = byte(rng.Float64() * 256)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		quanta := make(map[core.FlowID]float64, 4)
		for i := 0; i < 4; i++ {
			quanta[core.FlowID(i)] = float64(data[i]%255+1) / 16
		}
		got, err := NewDRR(quanta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newRefDRR(quanta)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, drrFuzzFlows)
		ref := make(map[core.FlowID]float64, drrFuzzFlows)
		slot := 0
		for i := 4; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			flow := core.FlowID(op/4) % drrFuzzFlows
			switch op % 4 {
			case 0:
				got.Enqueue(flow, slot, float64(arg)*1.37)
				want.Enqueue(flow, slot, float64(arg)*1.37)
			case 1:
				budget := float64(arg) / 9
				clear(out)
				clear(ref)
				got.ServeInto(budget, out)
				want.Serve(budget, ref)
				for g := core.FlowID(0); g < drrFuzzFlows; g++ {
					if out[g] != ref[g] {
						t.Fatalf("op %d: ServeInto(%g) flow %d: dense %x, oracle %x", i, budget, g, out[g], ref[g])
					}
				}
			case 2:
				got.Enqueue(flow, slot, float64(arg%100+1)*1e-14)
				want.Enqueue(flow, slot, float64(arg%100+1)*1e-14)
			case 3:
				slot++
				got.Enqueue(flow, slot, -float64(arg))
				want.Enqueue(flow, slot, -float64(arg))
			}
			if got.Backlog() != want.Backlog() {
				t.Fatalf("op %d: backlog dense %x, oracle %x", i, got.Backlog(), want.Backlog())
			}
			if got.QueueLen() != want.QueueLen() {
				t.Fatalf("op %d: queue len dense %d, oracle %d", i, got.QueueLen(), want.QueueLen())
			}
		}
	})
}

// TestDRRActivationBeforePointer pins a quirk both DRRs share: activate
// inserts into the id-sorted round without adjusting the pointer, so a
// lower-id flow that activates while a higher-id flow's visit is cut by
// the slot boundary lands under the pointer and inherits the resumed
// visit. It resumes with a deficit of 0 and serves nothing; the cut flow
// is then visited afresh and topped up with a new quantum on top of its
// leftover deficit. Fixing this changes the simulated DRR streams and
// needs re-pinned goldens, so it is pinned here rather than fixed.
func TestDRRActivationBeforePointer(t *testing.T) {
	quanta := map[core.FlowID]float64{0: 4, 1: 4}
	d, err := NewDRR(quanta)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefDRR(quanta)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{d, ref} {
		s.Enqueue(1, 0, 10)
		if out := serveAll(s, 2); out[0] != 0 || out[1] != 2 {
			t.Fatalf("%T: first slot served %v, want flow 1's visit cut at 2 bits", s, out[:2])
		}
		s.Enqueue(0, 1, 10)
		if out := serveAll(s, 4); out[0] != 0 || out[1] != 4 {
			t.Fatalf("%T: second slot served %v, want [0 4] (flow 0 inherits the cut visit)", s, out[:2])
		}
	}
}

// TestDRRTandemMatchesOracle runs whole tandems on the dense DRR and on
// the oracle, with fractional quanta and a probe reading QueueLen and
// Backlog at every sampled slot, and requires every simulated number to
// agree bit for bit.
func TestDRRTandemMatchesOracle(t *testing.T) {
	const slots = 3000
	quanta := map[core.FlowID]float64{ThroughFlow: 0.75, CrossFlow: 2.5}
	for _, seed := range []int64{1, 42} {
		for _, countAgg := range []bool{false, true} {
			label := fmt.Sprintf("seed=%d/count=%v", seed, countAgg)
			run := func(mk func(int) Scheduler) (*measure.DelayRecorder, Stats, []parityObs) {
				through, cross := mkTandemSources(seed, 4, 30, 70, countAgg)
				probe := &parityProbe{stride: 7}
				td := &Tandem{C: 20, Through: through, Cross: cross, MakeSched: mk, Probe: probe}
				rec, stats, err := td.Run(slots)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return rec, stats, probe.obs
			}
			rec, stats, obs := run(func(int) Scheduler {
				d, err := NewDRR(quanta)
				if err != nil {
					panic(err)
				}
				return d
			})
			refRec, refStats, refObs := run(func(int) Scheduler {
				d, err := newRefDRR(quanta)
				if err != nil {
					panic(err)
				}
				return d
			})
			requireSameStats(t, label, stats, refStats)
			requireSameRecorder(t, label, rec, refRec)
			if len(obs) != len(refObs) {
				t.Fatalf("%s: probe observations %d != %d", label, len(obs), len(refObs))
			}
			for i := range refObs {
				if obs[i] != refObs[i] {
					t.Fatalf("%s: probe obs %d: %+v != %+v", label, i, obs[i], refObs[i])
				}
			}
		}
	}
}
