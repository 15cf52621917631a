package randx

// redrawFrom is the least Int63 value that Float64 rejects. The floats
// just below 2⁶³ lie 1024 apart, so every x ≥ 2⁶³−512 rounds up to 2⁶³
// (the tie at 2⁶³−512 goes to the even 2⁶³), scales to exactly 1.0 and
// is redrawn.
const redrawFrom = 1<<63 - 512

// Threshold returns the integer cut T in [0, 2⁶³] for which
//
//	float64(x)·2⁻⁶³ < p  ⇔  x < T
//
// holds for every Int63 value x that Float64 accepts, so a Float64 draw
// can be held against p as an integer. The cut exists because the
// float image is monotone in x: int→float conversion rounds
// monotonically and scaling by a power of two is exact, so the draws
// below p are a prefix of the integers. T is the number of x in
// [0, 2⁶³) whose image is below p, found by binary search: 0 for p ≤ 0
// or NaN, 2⁶³ for p > 1.
func Threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2 // < 2⁶³, so the int64 conversion is exact
		if float64(int64(mid))*inv63 < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// StepOnOff advances a bank of two-state chains one step each, in index
// order, consuming exactly the draws that len(on) successive Float64
// calls would. Every flag must be 0 (off) or 1 (on). With u the chain's
// draw, an ON chain stays on when u < pStay and an OFF chain switches on
// when u ≥ pJoin, where stay = Threshold(pStay) and join =
// Threshold(pJoin); the result is the number of chains that were on
// before the step.
//
// The loop keeps the register's tap and feed indices in locals and walks
// it in runs that end where either index wraps, so the per-chain step has
// no wrap test. Each comparison is the integer form Threshold pins, and
// the next state is computed without a branch. A value Float64 would
// redraw ends the run; the chain then takes the next accepted value, as
// Float64 does, and a new run starts behind it. That finish sits outside
// the inner loop so the loop makes no call and keeps every index in a
// register rather than spilling it around the call.
func (r *Rand) StepOnOff(on []uint8, stay, join uint64) (wasOn int) {
	vec := &r.vec
	tap, feed := int(r.tap), int(r.feed)
	// cuts[o] is the cut a chain in state o holds its draw against. Both
	// the draw and the cut lie in [0, 2⁶³], so the sign bit of draw−cut
	// is draw < cut: the state an ON chain keeps and an OFF chain leaves.
	cuts := [2]uint64{join, stay}
	for len(on) > 0 {
		if tap == 0 {
			tap = fibLen
		}
		if feed == 0 {
			feed = fibLen
		}
		run := on[:min(tap, feed, len(on))]
		j := 0
		for ; j < len(run); j++ {
			tap--
			feed--
			x := vec[feed&(vecLen-1)] + vec[tap&(vecLen-1)]
			vec[feed&(vecLen-1)] = x
			u := uint64(x) & fibMask
			if u >= redrawFrom {
				break
			}
			o := run[j]
			wasOn += int(o)
			run[j] = uint8((u-cuts[o&1])>>63) ^ o ^ 1
		}
		if j < len(run) {
			// Chain j drew a value Float64 redraws: finish its draw on
			// the generic path and restart the run behind it.
			r.tap, r.feed = int32(tap), int32(feed)
			u := uint64(r.Int63())
			for u >= redrawFrom {
				u = uint64(r.Int63())
			}
			tap, feed = int(r.tap), int(r.feed)
			o := run[j]
			wasOn += int(o)
			run[j] = uint8((u-cuts[o&1])>>63) ^ o ^ 1
			j++
		}
		on = on[j:]
	}
	r.tap, r.feed = int32(tap), int32(feed)
	return wasOn
}
