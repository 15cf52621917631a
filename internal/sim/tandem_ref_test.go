package sim

// This file holds the reference slot loop for the block-engine parity
// tests: a verbatim copy of Tandem.Run as it existed before the batched
// engine (block fill + SoA serve + FIFO fast path) replaced it. The
// parity tests in tandem_parity_test.go run both loops on identically
// seeded universes and require every simulated number — recorder
// samples, stats, probe observations, progress callbacks — to be
// bit-identical. Do not "fix" or modernize this loop: its value is that
// it is the old code, byte for byte where the semantics live.

import (
	"errors"
	"fmt"

	"deltasched/internal/measure"
)

// refSumServed reimplements the old probe helper removed with the block
// engine: total bits served this slot. The old loop summed a two-entry
// map in map order; two-element float addition is commutative and an
// absent entry adds the same as a zero one, so summing the dense pair
// gives the same float.
func refSumServed(out []float64) float64 {
	total := 0.0
	for _, b := range out {
		total += b
	}
	return total
}

// runTandemRef is the pre-block Tandem.Run, kept verbatim (modulo the
// receiver spelling) as the parity oracle — except that it serves
// through ServeInto into a dense two-flow pair, because the map-output
// Serve it called no longer exists. The map was read only at the two
// tandem flow ids, so the pair carries the same numbers.
func runTandemRef(t *Tandem, slots int) (*measure.DelayRecorder, Stats, error) {
	if t.C <= 0 && len(t.Cs) == 0 {
		return nil, Stats{}, fmt.Errorf("sim: capacity must be positive, got %g", t.C)
	}
	if len(t.Cs) > 0 && len(t.Cs) != len(t.Cross) {
		return nil, Stats{}, fmt.Errorf("sim: %d per-node capacities for %d nodes", len(t.Cs), len(t.Cross))
	}
	for i, c := range t.Cs {
		if c <= 0 {
			return nil, Stats{}, fmt.Errorf("sim: node %d capacity must be positive, got %g", i+1, c)
		}
	}
	if t.Through == nil {
		return nil, Stats{}, errors.New("sim: tandem needs a through source")
	}
	if len(t.Cross) == 0 {
		return nil, Stats{}, errors.New("sim: tandem needs at least one node (len(Cross) = H)")
	}
	if t.MakeSched == nil {
		return nil, Stats{}, errors.New("sim: tandem needs a scheduler factory")
	}
	h := len(t.Cross)
	t.nodes = make([]Scheduler, h)
	for i := range t.nodes {
		t.nodes[i] = t.MakeSched(i)
		if t.nodes[i] == nil {
			return nil, Stats{}, fmt.Errorf("sim: scheduler factory returned nil for node %d", i)
		}
	}

	var shapers []*Shaper
	if t.MakeShaper != nil && h > 1 {
		shapers = make([]*Shaper, h-1)
		for i := range shapers {
			shapers[i] = t.MakeShaper(i)
		}
	}

	t.perNode = nil
	var nodeA, nodeD []float64
	if t.RecordPerNode {
		t.perNode = make([]*measure.DelayRecorder, h)
		for i := range t.perNode {
			t.perNode[i] = measure.NewDelayRecorder(slots)
		}
		nodeA = make([]float64, h)
		nodeD = make([]float64, h)
	}

	progressEvery := t.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1000
	}

	var (
		rec   *measure.DelayRecorder
		sink  measure.SlotSink
		stats Stats
		cumA  float64
		cumD  float64
		out   = make([]float64, 2)
	)
	if t.Sink != nil {
		sink = t.Sink
	} else {
		rec = measure.NewDelayRecorder(slots)
		sink = rec
	}
	for slot := 0; slot < slots; slot++ {
		probing := t.Probe != nil && t.Probe.Sample(slot)
		// External arrivals.
		a := t.Through.Next()
		cumA += a
		stats.ThroughArrived += a
		t.nodes[0].Enqueue(ThroughFlow, slot, a)
		if t.RecordPerNode {
			nodeA[0] += a
		}
		for i, cs := range t.Cross {
			if cs == nil {
				continue
			}
			x := cs.Next()
			stats.CrossArrived += x
			t.nodes[i].Enqueue(CrossFlow, slot, x)
		}
		// Serve nodes in path order; through departures cascade within the
		// slot. The output pair is reused across nodes and slots; clear
		// resets it without reallocating.
		for i := 0; i < h; i++ {
			clear(out)
			capa := t.C
			if len(t.Cs) > 0 {
				capa = t.Cs[i]
			}
			t.nodes[i].ServeInto(capa, out)
			if probing {
				observeNode(t.Probe, t.nodes[i], i, slot, refSumServed(out), capa)
			}
			fwd := out[ThroughFlow]
			if t.RecordPerNode {
				nodeD[i] += fwd
			}
			if i+1 < h {
				if shapers != nil && shapers[i] != nil {
					fwd = shapers[i].Step(fwd)
				}
				t.nodes[i+1].Enqueue(ThroughFlow, slot, fwd)
				if t.RecordPerNode {
					nodeA[i+1] += fwd
				}
			} else {
				cumD += fwd
				stats.ThroughLeft += fwd
			}
			if b := t.nodes[i].Backlog(); b > stats.MaxBacklog {
				stats.MaxBacklog = b
			}
		}
		if err := sink.Record(cumA, cumD); err != nil {
			return nil, Stats{}, err
		}
		if t.RecordPerNode {
			for i := 0; i < h; i++ {
				if err := t.perNode[i].Record(nodeA[i], nodeD[i]); err != nil {
					return nil, Stats{}, fmt.Errorf("node %d: %w", i, err)
				}
			}
		}
		if (slot+1)%progressEvery == 0 {
			if t.Progress != nil {
				t.Progress(slot+1, slots)
			}
			if t.Ctx != nil {
				if err := t.Ctx.Err(); err != nil {
					return nil, Stats{}, fmt.Errorf("sim: run stopped after %d/%d slots: %w", slot+1, slots, err)
				}
			}
		}
	}
	if t.Progress != nil && slots%progressEvery != 0 {
		t.Progress(slots, slots)
	}
	return rec, stats, nil
}
