package traffic

import (
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/minplus"
	"deltasched/internal/randx"
)

// TestFastRNGStreamParity pins the devirtualized paths against the
// original interface paths: a source built on the concrete *randx.Rand
// must emit the bit-identical per-slot sequence as one built on the
// equally-seeded *math/rand.Rand, for single MMOO flows, shared-RNG
// aggregates, and count aggregates. This is the property that lets the
// scenario runner swap its RNG without touching a single golden.
func TestFastRNGStreamParity(t *testing.T) {
	m := envelope.PaperSource()
	for _, seed := range []int64{1, 9, 42, -3} {
		legacyRNG := rand.New(rand.NewSource(seed))
		fastRNG := randx.NewRand(seed)

		legacyThrough, err := NewMMOOAggregate(m, 30, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastThrough, err := NewMMOOAggregate(m, 30, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		if fastThrough.bank == nil {
			t.Fatal("aggregate on *randx.Rand did not take the devirtualized bank path")
		}
		legacySingle, err := NewMMOO(m, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastSingle, err := NewMMOO(m, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		legacyCount, err := NewMMOOCountAggregate(m, 60, legacyRNG)
		if err != nil {
			t.Fatal(err)
		}
		fastCount, err := NewMMOOCountAggregate(m, 60, fastRNG)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave all three source kinds on the shared RNGs so the
		// parity also covers cross-source stream positions.
		for i := 0; i < 20_000; i++ {
			if w, g := legacyThrough.Next(), fastThrough.Next(); w != g {
				t.Fatalf("seed %d slot %d: aggregate %x != %x", seed, i, w, g)
			}
			if w, g := legacySingle.Next(), fastSingle.Next(); w != g {
				t.Fatalf("seed %d slot %d: mmoo %x != %x", seed, i, w, g)
			}
			if w, g := legacyCount.Next(), fastCount.Next(); w != g {
				t.Fatalf("seed %d slot %d: countagg %x != %x", seed, i, w, g)
			}
		}
	}
}

// TestNextBlockMatchesNext pins the BlockSource contract on every
// implementation: NextBlock over ragged block sizes must reproduce the
// exact per-slot Next sequence, including RNG consumption order.
func TestNextBlockMatchesNext(t *testing.T) {
	m := envelope.PaperSource()
	env := minplus.Affine(0.7, 3)
	build := func(seed int64) map[string]Source {
		rng := randx.NewRand(seed)
		mmoo, err := NewMMOO(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		slowMMOO, err := NewMMOO(m, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewMMOOAggregate(m, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
		count, err := NewMMOOCountAggregate(m, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := NewGreedy(env)
		if err != nil {
			t.Fatal(err)
		}
		trace := &Trace{Data: []float64{1, 2, -3, 0, 4, 5, -1, 7}}
		return map[string]Source{
			"mmoo-fast":  mmoo,
			"mmoo-slow":  slowMMOO,
			"aggregate":  agg,
			"countagg":   count,
			"cbr":        CBR{Rate: 1.5},
			"greedy":     greedy,
			"trace":      trace,
			"pulse":      &Pulse{Start: 5, Size: 9},
			"delayed":    &Delayed{Start: 6, Src: &Trace{Data: []float64{2, 2, 2}}},
			"periodic":   &PeriodicOnOff{Rate: 2, On: 3, Off: 2, Phase: 1},
			"plain-next": nextOnly{CBR{Rate: 0.25}},
		}
	}
	// Two identically-seeded universes: one drained per slot, one in
	// ragged blocks (including zero-length fills).
	perSlot := build(77)
	blocked := build(77)
	sizes := []int{1, 3, 0, 16, 5, 2, 31, 8, 64, 11}
	names := make([]string, 0, len(perSlot))
	for name := range perSlot {
		names = append(names, name)
	}
	buf := make([]float64, 64)
	slot := 0
	for round := 0; round < 40; round++ {
		n := sizes[round%len(sizes)]
		for _, name := range names {
			want := make([]float64, n)
			for i := range want {
				want[i] = perSlot[name].Next()
			}
			got := buf[:n]
			FillBlock(blocked[name], got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: slot %d (round %d): block %x != per-slot %x",
						name, slot+i, round, got[i], want[i])
				}
			}
		}
		slot += n
	}
}

// nextOnly hides a source's NextBlock so FillBlock's per-slot fallback is
// exercised.
type nextOnly struct{ s Source }

func (n nextOnly) Next() float64 { return n.s.Next() }
