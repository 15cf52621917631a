package main

import (
	"sort"
	"sync"
	"time"
)

// The end-to-end timings are reported at a fixed reference speed of the
// host. On a shared machine the speed at which the same instructions
// retire changes by up to 2× over tens of seconds (other tenants' load
// on the same cores), and it slows wall and CPU time alike. A sampler
// goroutine therefore times a fixed, benchmark-owned kernel throughout
// the run, and each measured interval is scaled by the host speed over
// that interval:
//
//	reported = measured × nominal / (reference kernel time then)
//
// The kernel runs no repository code, so a change to the program moves
// the measured times and not the scale; the scale moves only with the
// host. The values read as seconds on a host where the kernel takes its
// nominal time, which is close to its usual time on the 2-vCPU machine
// the bounds were set on.
//
// The kernel is a small slot loop of the simulator's kind. Alternated
// with the repository's own work on one core for four minutes, the ratio
// of the work's time to the kernel's varied between 15 s windows by 1.0%
// (CV) for the traffic fill, 2.6% for figure points on the analytic
// backend and 1.2% for a runner's set-up, while each of them drifted by
// 3–5%. A floating-point kernel with a 1 MiB table tracked them up to
// twice as badly.
//
// The sampler alternates with the work on the benchmark's single core
// (main.go), so its own runs are left out of every measured interval.
// Run on a second core next to busy workers, it slowed with whatever
// those workers ran and no longer tracked them.

// refNominal is the kernel's time on the nominal host.
const refNominal = 1000 * time.Microsecond

// refEvery is the sampling period: the sampler takes about 2% of the
// core.
const refEvery = 50 * time.Millisecond

// refPad widens a short interval on both sides until it holds enough
// samples to judge the host speed over it.
const refPad = 2 * time.Second

const (
	refFlows = 256 // on/off flows drawn per slot
	refSlots = 720 // slots per kernel run
	refChunk = 8   // queue pushes and pops per slot
	lfLen    = 607 // additive lagged-Fibonacci register length
	lfTap    = 273
)

// refState is the kernel's state; only the sampler touches it. The
// generator and the flows carry over from one run to the next; the queue
// is empty between slots, so every run does the same amount of work.
var refState struct {
	vec       [lfLen]uint64
	feed, tap int
	on        [refFlows]bool
	heap      []float64
}

func init() {
	x := uint64(1)
	for i := range refState.vec {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		refState.vec[i] = z ^ z>>31
	}
	refState.tap = lfTap
	refState.heap = make([]float64, 0, 4*refChunk)
}

// refKernel is the fixed work the sampler times: on/off flows drawn
// from an additive lagged-Fibonacci generator (one unpredictable branch
// per flow), then keyed chunks pushed into and popped from a binary heap.
// It does not allocate, so the garbage collector never assists in it.
func refKernel() float64 {
	st := &refState
	total := 0.0
	for slot := 0; slot < refSlots; slot++ {
		arr := 0.0
		for i := range st.on {
			if st.feed--; st.feed < 0 {
				st.feed += lfLen
			}
			if st.tap--; st.tap < 0 {
				st.tap += lfLen
			}
			x := st.vec[st.feed] + st.vec[st.tap]
			st.vec[st.feed] = x
			f := float64(x>>11) * 0x1p-53
			if st.on[i] {
				arr += 1.5
				st.on[i] = f < 0.9
			} else {
				st.on[i] = f >= 0.7
			}
		}
		for k := 0; k < refChunk; k++ {
			h := append(st.heap, arr*float64(k+1)+float64(st.vec[(st.feed+k)%lfLen]>>40))
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if h[p] <= h[j] {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
			st.heap = h
		}
		for k := 0; k < refChunk; k++ {
			h := st.heap
			total += h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for j := 0; ; {
				l := 2*j + 1
				if l >= n {
					break
				}
				if r := l + 1; r < n && h[r] < h[l] {
					l = r
				}
				if h[j] <= h[l] {
					break
				}
				h[j], h[l] = h[l], h[j]
				j = l
			}
			st.heap = h
		}
		total += arr
	}
	return total
}

// refSink keeps the kernel's results live.
var refSink float64

// speedLog is the sampler's record: when each kernel run happened (its
// midpoint) and how long it took.
type speedLog struct {
	mu   sync.Mutex
	at   []time.Time
	took []float64 // seconds

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startSpeedLog starts the sampler. Stop must be called on every path
// out of the run; it waits for the sampler to end.
func startSpeedLog() *speedLog {
	l := &speedLog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			a := time.Now()
			refSink += refKernel()
			d := time.Since(a)
			l.mu.Lock()
			l.at = append(l.at, a.Add(d/2))
			l.took = append(l.took, d.Seconds())
			l.mu.Unlock()
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return l
}

// Stop ends the sampler and waits for it. Later calls do nothing.
func (l *speedLog) Stop() {
	l.stopOnce.Do(func() {
		close(l.stop)
		<-l.done
	})
}

// scale is the factor that brings a time measured over [a, b] to the
// nominal host: the kernel's nominal time over its typical time in
// that interval, widened by refPad on both sides. The typical time is
// the mean of the samples that are not more than 1.5× the interval's
// median; the slower ones were interrupted (a collection, a preempted
// thread) rather than slowed by the host. 1 when there are no samples.
func (l *speedLog) scale(a, b time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(a.Add(-refPad)) })
	hi := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(b.Add(refPad)) })
	if lo >= hi {
		// Nothing that close: take the nearest sample.
		switch {
		case len(l.at) == 0:
			return 1
		case lo >= len(l.at):
			lo = len(l.at) - 1
		}
		hi = lo + 1
	}
	xs := l.took[lo:hi]
	cut := 1.5 * median(xs)
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= cut {
			sum += x
			n++
		}
	}
	return refNominal.Seconds() * float64(n) / sum
}

// adjust brings a time d measured over [a, b] (a wall time, or the CPU
// time spent in it) to the nominal host: d less the sampler's own runs
// within [a, b], which held the benchmark's only core, times scale(a, b).
// In seconds.
func (l *speedLog) adjust(a, b time.Time, d time.Duration) float64 {
	return (d - l.busy(a, b)).Seconds() * l.scale(a, b)
}

// busy is how long the sampler ran within [a, b].
func (l *speedLog) busy(a, b time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum time.Duration
	// A run is at most a few milliseconds long, so every run that
	// overlaps [a, b] has its midpoint within refPad of it.
	i := sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(a.Add(-refPad)) })
	for ; i < len(l.at) && !l.at[i].After(b.Add(refPad)); i++ {
		half := time.Duration(l.took[i] * float64(time.Second) / 2)
		lo, hi := l.at[i].Add(-half), l.at[i].Add(half)
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if hi.After(lo) {
			sum += hi.Sub(lo)
		}
	}
	return sum
}

// samples is how many kernel runs the sampler has timed.
func (l *speedLog) samples() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.at)
}
