package sim

import (
	"fmt"
	"math"
	"slices"

	"deltasched/internal/core"
)

// DRR is deficit round robin: flows are visited cyclically and each visit
// may transmit up to its accumulated quantum. Like GPS, DRR approximates
// fair sharing and is *not* a Δ-scheduler (precedence between two
// arrivals depends on the round-robin pointer and the deficit counters,
// i.e. on the random backlog history). It is included as a second
// executable example of a widely deployed non-Δ discipline.
//
// All per-flow state is dense, indexed by flow id, so the serve loop
// does no hashing (flow ids must be non-negative). The serve order and
// every float operation match the map-based DRR kept as the oracle in
// drr_test.go bit for bit (DESIGN.md §20).
type DRR struct {
	quantum  []float64     // per flow; 0 marks a flow not yet seen
	deficit  []float64     // per flow
	queues   []drrQueue    // per flow
	active   []core.FlowID // round-robin list of backlogged flows, sorted by id
	next     int           // round-robin pointer into active
	midVisit bool          // a visit was interrupted by the slot boundary
	backlog  float64
}

// drrQueue is one flow's chunk queue: q[head:] holds the queued chunk
// sizes in arrival order. Chunks in q[head:clean] passed the last drain's
// filter (every chunk > 1e-12) and have not been touched since; chunks in
// q[clean:] were appended after that drain and are not yet filtered.
type drrQueue struct {
	q     []float64
	head  int
	clean int
}

var _ Scheduler = (*DRR)(nil)

// NewDRR validates and copies the per-flow quanta (bits added to a flow's
// deficit each round).
func NewDRR(quantum map[core.FlowID]float64) (*DRR, error) {
	if len(quantum) == 0 {
		return nil, fmt.Errorf("sim: DRR needs at least one flow quantum")
	}
	d := &DRR{active: make([]core.FlowID, 0, len(quantum))}
	for f, q := range quantum {
		if f < 0 {
			return nil, fmt.Errorf("sim: DRR flow id must be non-negative, got %d", f)
		}
		if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("sim: DRR quantum for flow %d must be positive, got %g", f, q)
		}
		d.grow(f)
		d.quantum[f] = q
	}
	return d, nil
}

// grow extends the per-flow state to cover flow f.
func (d *DRR) grow(f core.FlowID) {
	n := int(f) + 1
	if n <= len(d.quantum) {
		return
	}
	add := n - len(d.quantum)
	d.quantum = append(d.quantum, make([]float64, add)...)
	d.deficit = append(d.deficit, make([]float64, add)...)
	d.queues = append(d.queues, make([]drrQueue, add)...)
}

// Name implements Scheduler.
func (d *DRR) Name() string { return "DRR" }

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	d.grow(f)
	if d.quantum[f] == 0 {
		d.quantum[f] = 1
	}
	q := &d.queues[f]
	if q.head == len(q.q) {
		d.activate(f)
		if q.q == nil {
			// Room for 64 chunks up front swallows the short end of the
			// append-doubling chain that backlog excursions would
			// otherwise pay one allocation at a time.
			q.q = make([]float64, 0, 64)
		}
		q.q, q.head, q.clean = q.q[:0], 0, 0
	} else if q.head > 32 && 2*q.head >= len(q.q) {
		// Reclaim the served prefix so the backing array stays
		// proportional to the live queue, amortized O(1) per chunk.
		n := copy(q.q, q.q[q.head:])
		q.q = q.q[:n]
		q.clean -= q.head
		q.head = 0
	}
	q.q = append(q.q, bits)
	d.backlog += bits
}

// activate inserts f into the id-sorted round-robin list. The pointer
// next is not adjusted, so a flow inserted at or before it shifts the
// round (pinned by TestDRRActivationBeforePointer).
func (d *DRR) activate(f core.FlowID) {
	if i, found := slices.BinarySearch(d.active, f); !found {
		d.active = slices.Insert(d.active, i, f)
	}
}

// ServeInto implements Scheduler: cycle through backlogged flows, topping
// up deficits by one quantum per visit and draining up to the deficit.
func (d *DRR) ServeInto(budget float64, out []float64) {
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
		spend := min(budget, d.deficit[f])
		served := d.drain(f, spend)
		out[f] += served
		budget -= served
		d.deficit[f] -= served
		if q := &d.queues[f]; q.head == len(q.q) {
			// Flow emptied: reset its deficit and remove from the round.
			d.deficit[f] = 0
			d.active = slices.Delete(d.active, d.next, d.next+1)
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

// drain serves up to amount bits from the head of f's queue and drops
// every chunk left with at most 1e-12 bits. The walk and its float
// operations are the oracle's; the filter visits only the chunks the
// walk reached and those appended since the last drain, because the
// chunks in between passed the last filter untouched (DESIGN.md §20).
func (d *DRR) drain(f core.FlowID, amount float64) float64 {
	q := &d.queues[f]
	b := q.q
	total := 0.0
	k := len(b) - 1 // last chunk the walk reached
	for i := q.head; i < len(b); i++ {
		take := min(amount-total, b[i])
		b[i] -= take
		total += take
		if total >= amount-1e-15 {
			k = i
			break
		}
	}
	// Compact the reached prefix toward its end, keeping order, so the
	// untouched chunks after it stay where they are.
	w := k
	for i := k; i >= q.head; i-- {
		if b[i] > 1e-12 {
			b[w] = b[i]
			w--
		}
	}
	q.head = w + 1
	w = max(k+1, q.clean)
	for i := w; i < len(b); i++ {
		if b[i] > 1e-12 {
			b[w] = b[i]
			w++
		}
	}
	q.q = b[:w]
	q.clean = w
	d.backlog -= total
	if d.backlog < 0 {
		d.backlog = 0
	}
	return total
}

// Backlog implements Scheduler.
func (d *DRR) Backlog() float64 { return d.backlog }

// QueueLen implements QueueLener: queued chunks across all flows.
func (d *DRR) QueueLen() int {
	n := 0
	for i := range d.queues {
		n += len(d.queues[i].q) - d.queues[i].head
	}
	return n
}
