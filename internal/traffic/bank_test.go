package traffic

import (
	"math"
	"math/rand"
	"testing"

	"deltasched/internal/envelope"
	"deltasched/internal/randx"
)

// inv63 is the exact power-of-two reciprocal 2⁻⁶³ that randx's Float64
// multiplies by.
const inv63 = 1.0 / (1 << 63)

// bankOracle is the per-member loop that Aggregate.nextBank ran on a
// uniform bank before the batched randx.(*Rand).StepOnOff walk, kept
// verbatim as the reference the kernel is pinned against.
type bankOracle struct {
	bankR *randx.Rand
	bankM envelope.MMOO
	on    []bool
}

// newBankOracle reads the members' initial states off a freshly built
// aggregate (the bank path never advances the member structs).
func newBankOracle(a *Aggregate) *bankOracle {
	o := &bankOracle{on: make([]bool, len(a.sources))}
	for i, s := range a.sources {
		m := s.(*MMOO)
		o.bankR, o.bankM, o.on[i] = m.fast, m.model, m.on
	}
	return o
}

func (a *bankOracle) next() float64 {
	total := 0.0
	r := a.bankR
	peak, p22, p11 := a.bankM.Peak, a.bankM.P22, a.bankM.P11
	on := a.on
	for i, o := range on {
		// Hand-inlined randx.(*Rand).Float64: the redraw loop keeps
		// Float64 itself over the compiler's inline budget, and at one
		// draw per flow per slot the call is measurable. float64(Int63())
		// times the exact reciprocal of 2⁶³, redrawn on rounding to 1.0,
		// is the Go-1 stream bit for bit; TestFastRNGStreamParity pins
		// this loop against the interface path every run. Each flow
		// consumes exactly one draw on either branch, so hoisting the
		// draw above the state test preserves the stream.
		f := float64(r.Int63()) * inv63
		for f == 1 {
			f = float64(r.Int63()) * inv63
		}
		if o {
			total += peak
			on[i] = f < p22
		} else {
			on[i] = f >= p11
		}
	}
	return total
}

// bankSizes sit on either side of the register's wrap distances: the
// tap and feed indices each wrap every 607 draws, 334 draws apart one way
// and 273 the other.
var bankSizes = []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1500}

// TestBankMatchesPerFlowReference interleaves per-source aggregates of
// every size in bankSizes on one shared RNG, under two models, and
// requires every slot's output to equal, bit for bit, the same wiring on
// math/rand, which runs the generic per-member loop.
func TestBankMatchesPerFlowReference(t *testing.T) {
	models := []envelope.MMOO{envelope.PaperSource(), {Peak: 0.7, P11: 0.5, P22: 0.6}}
	for _, seed := range []int64{2, 31} {
		ref := rand.New(rand.NewSource(seed))
		fast := randx.NewRand(seed)
		var want, got []*Aggregate
		for i, n := range bankSizes {
			m := models[i%len(models)]
			w, err := NewMMOOAggregate(m, n, ref)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewMMOOAggregate(m, n, fast)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 && g.bank == nil {
				t.Fatalf("n=%d: aggregate on *randx.Rand did not take the bank path", n)
			}
			want, got = append(want, w), append(got, g)
		}
		for slot := 0; slot < 200; slot++ {
			for i := range want {
				if w, g := want[i].Next(), got[i].Next(); math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("seed %d slot %d n=%d: %x, want %x", seed, slot, bankSizes[i], g, w)
				}
			}
		}
	}
}

// TestMixedBankMatchesPerFlowReference covers the aggregates that must
// not take the bank path: members with different models, or on
// different generators, run the generic member loop and still match the
// same wiring on math/rand.
func TestMixedBankMatchesPerFlowReference(t *testing.T) {
	m1, m2 := envelope.PaperSource(), envelope.MMOO{Peak: 0.7, P11: 0.5, P22: 0.6}
	build := func(shared, other randx.Uniform) []*Aggregate {
		mk := func(m envelope.MMOO, rng randx.Uniform) Source {
			s, err := NewMMOO(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		return []*Aggregate{
			NewAggregate(mk(m1, shared), mk(m2, shared), mk(m1, shared)),
			NewAggregate(mk(m1, shared), mk(m1, other), mk(m1, shared)),
		}
	}
	want := build(rand.New(rand.NewSource(4)), rand.New(rand.NewSource(5)))
	got := build(randx.NewRand(4), randx.NewRand(5))
	for i, a := range got {
		if a.bank != nil {
			t.Fatalf("mixed aggregate %d took the bank path", i)
		}
	}
	for slot := 0; slot < 2000; slot++ {
		for i := range want {
			if w, g := want[i].Next(), got[i].Next(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("mixed aggregate %d slot %d: %x, want %x", i, slot, g, w)
			}
		}
	}
}

// TestBankMatchesOracle pins nextBank against the per-member loop it
// replaced, on equally seeded generators, for every size in bankSizes.
func TestBankMatchesOracle(t *testing.T) {
	for _, n := range bankSizes[1:] {
		checkBankAgainstOracle(t, 5, n, envelope.PaperSource(), 300)
	}
}

// checkBankAgainstOracle drives an aggregate and the oracle on two
// generators with the same seed and compares every slot bit for bit.
func checkBankAgainstOracle(t *testing.T, seed int64, n int, m envelope.MMOO, slots int) {
	t.Helper()
	a, err := NewMMOOAggregate(m, n, randx.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewMMOOAggregate(m, n, randx.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	if a.bank == nil {
		t.Fatalf("n=%d: no bank", n)
	}
	oracle := newBankOracle(o)
	for slot := 0; slot < slots; slot++ {
		if w, g := oracle.next(), a.Next(); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("seed %d n=%d %+v slot %d: %x, want %x", seed, n, m, slot, g, w)
		}
	}
	if w, g := oracle.bankR.Int63(), a.bank.Int63(); w != g {
		t.Fatalf("seed %d n=%d %+v: stream after %d slots at %d, want %d", seed, n, m, slots, g, w)
	}
}

// FuzzBankFill compares the batched bank with the per-member oracle over
// arbitrary seeds, sizes and transition probabilities.
func FuzzBankFill(f *testing.F) {
	f.Add(int64(1), uint16(210), 0.989, 0.9)
	f.Add(int64(-7), uint16(607), 0.5, 0.5)
	f.Add(int64(3), uint16(1), 1.0, 1.0)
	f.Add(int64(0), uint16(274), 0.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, p11, p22 float64) {
		m := envelope.MMOO{Peak: 1.5, P11: p11, P22: p22}
		flows := int(n % 2048)
		if m.Validate() != nil || flows == 0 {
			return
		}
		checkBankAgainstOracle(t, seed, flows, m, 40)
	})
}

// BenchmarkBankFill measures one slot of the paper's 210-flow
// aggregate; the oracle variant times the per-member loop it replaced.
func BenchmarkBankFill(b *testing.B) {
	for _, tc := range []struct {
		name string
		next func(*Aggregate) func() float64
	}{
		{"batched", func(a *Aggregate) func() float64 { return a.Next }},
		{"oracle", func(a *Aggregate) func() float64 { return newBankOracle(a).next }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a, err := NewMMOOAggregate(envelope.PaperSource(), 210, randx.NewRand(1))
			if err != nil {
				b.Fatal(err)
			}
			next := tc.next(a)
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/210, "ns/flow")
			benchSink = sum
		})
	}
}

var benchSink float64
