package randx

import (
	"math"
	"math/rand"
	"testing"
)

// stepOnOffRef is the per-chain definition StepOnOff must reproduce: one
// Float64 draw per chain, in index order, held against the float
// probabilities.
func stepOnOffRef(r Uniform, on []uint8, pStay, pJoin float64) int {
	wasOn := 0
	for i, o := range on {
		f := r.Float64()
		if o == 1 {
			wasOn++
			on[i] = b2u8(f < pStay)
		} else {
			on[i] = b2u8(f >= pJoin)
		}
	}
	return wasOn
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// TestStepOnOffMatchesFloat64 runs banks of sizes that start and end runs
// on either side of the register wraps (tap and feed each wrap every 607
// draws, 334 draws apart one way and 273 the other), interleaved on one
// generator, against the per-chain
// math/rand reference: every count and every flag must agree, and the
// generator must end on the reference stream.
func TestStepOnOffMatchesFloat64(t *testing.T) {
	sizes := []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1500}
	probs := [][2]float64{{0.9, 0.989}, {0.5, 0.5}, {0, 1}, {1, 0}, {0.999, 0.001}}
	for _, seed := range []int64{1, 7, -42} {
		ref := rand.New(rand.NewSource(seed))
		fast := NewRand(seed)
		pick := rand.New(rand.NewSource(seed + 1))
		refOn := make([][]uint8, len(sizes))
		fastOn := make([][]uint8, len(sizes))
		for b, n := range sizes {
			refOn[b] = make([]uint8, n)
			for i := range refOn[b] {
				refOn[b][i] = uint8(pick.Intn(2))
			}
			fastOn[b] = append([]uint8(nil), refOn[b]...)
		}
		for slot := 0; slot < 30; slot++ {
			for b := range sizes {
				p := probs[(b+slot)%len(probs)]
				want := stepOnOffRef(ref, refOn[b], p[0], p[1])
				got := fast.StepOnOff(fastOn[b], Threshold(p[0]), Threshold(p[1]))
				if got != want {
					t.Fatalf("seed %d slot %d n=%d: %d chains on, want %d", seed, slot, sizes[b], got, want)
				}
				for i := range refOn[b] {
					if fastOn[b][i] != refOn[b][i] {
						t.Fatalf("seed %d slot %d n=%d: chain %d state %d, want %d",
							seed, slot, sizes[b], i, fastOn[b][i], refOn[b][i])
					}
				}
			}
		}
		if w, g := ref.Int63(), fast.Int63(); w != g {
			t.Fatalf("seed %d: stream after the banks %d, want %d", seed, g, w)
		}
	}
}

// forceDraw rewrites r's register so that its k-th next Int63 (k from 0)
// is v, returning false when the rewrite feeds back into an earlier draw
// and the value does not land.
func forceDraw(r *Rand, k int, v uint64) bool {
	c := *r
	for i := 0; i < k; i++ {
		c.Uint64()
	}
	t, f := int(c.tap)-1, int(c.feed)-1
	if t < 0 {
		t += fibLen
	}
	if f < 0 {
		f += fibLen
	}
	r.vec[f] = int64(v) - c.vec[t]
	c = *r
	for i := 0; i < k; i++ {
		c.Uint64()
	}
	return uint64(c.Int63()) == v
}

// TestStepOnOffRedraw crafts registers whose next draws round to 1.0 — a
// path that fires with probability 2⁻⁵⁴ per draw, so no seeded run
// reaches it — at run starts, mid-run, at the last draw before a wrap and
// twice in a row, and requires StepOnOff to skip them exactly as Float64
// does. The value just below the redraw range must be kept.
func TestStepOnOffRedraw(t *testing.T) {
	base := NewRand(3)
	for i := 0; i < 600; i++ { // tap 7, feed 341: a tap wrap 7 draws ahead
		base.Uint64()
	}
	type craft struct {
		at []int
		v  uint64
	}
	for _, c := range []craft{
		{[]int{0}, redrawFrom},
		{[]int{0}, 1<<63 - 1},
		{[]int{3}, redrawFrom + 17},
		{[]int{6}, 1<<63 - 1},
		{[]int{7}, redrawFrom},
		{[]int{6, 7}, redrawFrom},
		{[]int{2}, redrawFrom - 1},
	} {
		for _, n := range []int{1, 5, 8, 12, 40} {
			r := *base
			for _, k := range c.at {
				if !forceDraw(&r, k, c.v) {
					t.Fatalf("draw %d: crafted value %d did not land", k, c.v)
				}
			}
			ref := r
			on := make([]uint8, n)
			for i := range on {
				on[i] = uint8(i % 2)
			}
			refOn := append([]uint8(nil), on...)
			want := stepOnOffRef(&ref, refOn, 0.5, 0.5)
			got := r.StepOnOff(on, Threshold(0.5), Threshold(0.5))
			if got != want || string(on) != string(refOn) {
				t.Fatalf("crafted %d at %v, n=%d: got %d %v, want %d %v", c.v, c.at, n, got, on, want, refOn)
			}
			if r.tap != ref.tap || r.feed != ref.feed || r.vec != ref.vec {
				t.Fatalf("crafted %d at %v, n=%d: register diverged from Float64's", c.v, c.at, n)
			}
		}
	}
	if f := float64(int64(redrawFrom)) * inv63; f != 1 {
		t.Fatalf("2⁶³−512 scales to %v, want 1", f)
	}
	if f := float64(int64(redrawFrom-1)) * inv63; f >= 1 {
		t.Fatalf("2⁶³−513 scales to %v, want < 1", f)
	}
}

// TestThresholdExact checks the cut Threshold returns against its
// definition: the value below it scales under p and the cut itself does
// not.
func TestThresholdExact(t *testing.T) {
	ps := []float64{0, 1, 0.989, 0.9, 0.5, 1e-300, 5e-324, -1, 2, math.Inf(1), math.Inf(-1)}
	for _, p := range []float64{0, 1, 0.989, 0.9} {
		ps = append(ps, math.Nextafter(p, 0), math.Nextafter(p, 1), math.Nextafter(p, 2), math.Nextafter(p, -1))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(70)))
	}
	scale := func(x uint64) float64 { return float64(int64(x)) * inv63 }
	for _, p := range ps {
		c := Threshold(p)
		if c > 1<<63 {
			t.Fatalf("p=%v: cut %d above 2⁶³", p, c)
		}
		if c > 0 && !(scale(c-1) < p) {
			t.Fatalf("p=%v: cut %d, but %d scales to %v, not below p", p, c, c-1, scale(c-1))
		}
		if c < 1<<63 && scale(c) < p {
			t.Fatalf("p=%v: cut %d scales to %v, below p", p, c, scale(c))
		}
	}
	if c := Threshold(math.NaN()); c != 0 {
		t.Fatalf("NaN: cut %d, want 0", c)
	}
}
