package sim

import "deltasched/internal/core"

// FIFO serves strictly in arrival order (simultaneous arrivals ordered by
// flow id) — the ring-buffer specialization of the heap-backed Precedence
// instance newHeapFIFO.
//
// Why a ring is safe: FIFO keys are (slot, 0), and every chunk a tandem
// node admits arrives with a non-decreasing slot, so admissions are
// already in key order except for one wrinkle — at an interior node the
// local cross chunk (flow 1) is enqueued before the through chunk (flow 0)
// forwarded within the same slot, and flow 0 precedes flow 1 at equal
// keys. Enqueue therefore bubbles the new chunk from the tail while it is
// strictly smaller under chunkLess, which restores sortedness after any
// admission sequence, not just the tandem's. A sorted queue dequeued from
// the front and a binary min-heap under the same strict total order pop
// the identical chunk sequence, so serve order — and with it every
// simulated number — matches the heap implementation bit for bit (pinned
// by TestFIFORingMatchesHeap and the tandem parity tests). What the ring
// saves is the per-chunk sift-up/sift-down of the heap: for the tandem's
// in-order admissions the bubble loop body never executes more than once.
type FIFO struct {
	q       []chunk
	head    int // q[head:] are the live chunks, sorted by chunkLess
	backlog float64
	seq     int
}

var (
	_ Scheduler = (*FIFO)(nil)
	_ HeadQueue = (*FIFO)(nil)
)

// NewFIFO serves strictly in arrival order; simultaneous arrivals are
// ordered by flow id. The ring starts with room for 128 queued chunks —
// a few KB that swallows the append-doubling chain a run's backlog
// excursions would otherwise pay one allocation at a time.
func NewFIFO() *FIFO { return &FIFO{q: make([]chunk, 0, 128)} }

// Name implements Scheduler.
func (p *FIFO) Name() string { return "FIFO" }

// Enqueue implements Scheduler.
func (p *FIFO) Enqueue(f core.FlowID, slot int, bits float64) {
	if bits <= 0 {
		return
	}
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	} else if p.head > 32 && 2*p.head >= len(p.q) {
		// Reclaim the served prefix so the backing array stays
		// proportional to the live queue, amortized O(1) per chunk.
		n := copy(p.q, p.q[p.head:])
		p.q = p.q[:n]
		p.head = 0
	}
	p.seq++
	p.q = append(p.q, chunk{k1: float64(slot), flow: f, bits: bits, seq: p.seq})
	for j := len(p.q) - 1; j > p.head && chunkLess(&p.q[j], &p.q[j-1]); j-- {
		p.q[j], p.q[j-1] = p.q[j-1], p.q[j]
	}
	p.backlog += bits
}

// ServeInto implements Scheduler. The loop body performs the exact
// float operation sequence of Precedence.ServeInto on the head chunk, so
// served amounts and residual backlog are bit-identical to the heap FIFO.
func (p *FIFO) ServeInto(budget float64, out []float64) {
	for budget > 1e-12 && p.head < len(p.q) {
		c := &p.q[p.head]
		take := min(budget, c.bits)
		out[c.flow] += take
		c.bits -= take
		p.backlog -= take
		budget -= take
		if c.bits <= 1e-12 {
			p.backlog += c.bits // absorb the fp residue
			p.head++
		}
	}
	if p.backlog < 0 {
		p.backlog = 0
	}
}

// pushTail appends a chunk that is already >= every queued chunk under
// chunkLess (the caller's obligation), reusing Enqueue's compaction
// policy without the bubble pass.
func (p *FIFO) pushTail(c chunk) {
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	} else if p.head > 32 && 2*p.head >= len(p.q) {
		n := copy(p.q, p.q[p.head:])
		p.q = p.q[:n]
		p.head = 0
	}
	p.seq++
	c.seq = p.seq
	p.q = append(p.q, c)
}

// serveSlot fuses one tandem slot's two enqueues (through and cross)
// with the serve, for the all-FIFO fast pass: chunks that are fully
// served within their arrival slot — the common case away from backlog
// excursions — never touch the ring at all, skipping Enqueue's append
// and bubble and ServeInto's queue walk. thrFirst selects the backlog
// accumulation order (node 0 admits through before cross; interior
// nodes see the local cross arrival before the forwarded through).
//
// Bit-identity with Enqueue+Enqueue+ServeInto: the backlog additions
// replay the two Enqueues in their original order; the serve replays
// ServeInto's float sequence over the identical logical queue — ring
// leftovers (all from earlier slots) first, then this slot's through
// chunk (flow 0) before its cross chunk (flow 1), exactly where the
// bubble pass would have sorted them; unserved residue joins the ring
// with the same bits value the old code left in it. min is computed by
// branch instead of the builtin — identical on the positive finite
// operands that reach it. The internal seq counter advances only for
// chunks that actually enter the ring, which is unobservable: seq is
// the chunkLess tie-breaker of last resort and a tandem node never
// holds two chunks with equal (slot, flow).
func (p *FIFO) serveSlot(budget float64, slot int, thr, cross float64, thrFirst bool, out []float64) {
	if thrFirst {
		if thr > 0 {
			p.backlog += thr
		}
		if cross > 0 {
			p.backlog += cross
		}
	} else {
		if cross > 0 {
			p.backlog += cross
		}
		if thr > 0 {
			p.backlog += thr
		}
	}
	for budget > 1e-12 && p.head < len(p.q) {
		c := &p.q[p.head]
		take := c.bits
		if budget < take {
			take = budget
		}
		out[c.flow] += take
		c.bits -= take
		p.backlog -= take
		budget -= take
		if c.bits <= 1e-12 {
			p.backlog += c.bits // absorb the fp residue
			p.head++
		}
	}
	if thr > 0 {
		if budget > 1e-12 {
			take := thr
			if budget < take {
				take = budget
			}
			out[0] += take
			thr -= take
			p.backlog -= take
			budget -= take
			if thr <= 1e-12 {
				p.backlog += thr // absorb the fp residue
				thr = 0
			}
		}
		if thr > 0 {
			p.pushTail(chunk{k1: float64(slot), flow: 0, bits: thr})
		}
	}
	if cross > 0 {
		if budget > 1e-12 {
			take := cross
			if budget < take {
				take = budget
			}
			out[1] += take
			cross -= take
			p.backlog -= take
			if cross <= 1e-12 {
				p.backlog += cross // absorb the fp residue
				cross = 0
			}
		}
		if cross > 0 {
			p.pushTail(chunk{k1: float64(slot), flow: 1, bits: cross})
		}
	}
	if p.backlog < 0 {
		p.backlog = 0
	}
}

// Backlog implements Scheduler.
func (p *FIFO) Backlog() float64 { return p.backlog }

// QueueLen implements QueueLener: the number of queued chunks.
func (p *FIFO) QueueLen() int { return len(p.q) - p.head }

// headChunk implements HeadQueue.
func (p *FIFO) headChunk() *chunk {
	if p.head == len(p.q) {
		return nil
	}
	return &p.q[p.head]
}

// popHead implements HeadQueue.
func (p *FIFO) popHead() { p.head++ }

// addBacklog implements HeadQueue.
func (p *FIFO) addBacklog(d float64) { p.backlog += d }
