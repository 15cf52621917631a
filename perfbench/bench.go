package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// setupRound is how many set-ups a run times before each measured batch
// and after the last: a set-up takes a fraction of a millisecond and
// varies by tens of percent from one to the next, so its median needs
// many samples, and interleaving them with the batches exposes them to
// the same drift of the host.
const setupRound = 100

// tally accumulates the correctness verdict over the batches of a run.
type tally struct {
	attempted, failed int
	messages          []string
	mismatch          []string // benchmark-level failures (determinism, replays)
}

func (t *tally) add(b batch, bad []string) {
	t.attempted += len(b.points) + b.lostPts
	t.failed += len(bad) - len(b.failed) + b.lostPts
	t.messages = append(t.messages, bad...)
}

// finish reports the failures on stderr and fills the verdict fields.
func (t *tally) finish(r *result, stderr io.Writer) {
	const show = 10
	for i, m := range append(t.messages, t.mismatch...) {
		if i == show {
			fmt.Fprintf(stderr, "perfbench: ... %d more\n", len(t.messages)+len(t.mismatch)-show)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", m)
	}
	if t.failed > t.attempted {
		t.failed = t.attempted
	}
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && len(t.mismatch) == 0 && t.attempted > 0
}

// fits reports whether one more batch, taking about as long as the
// last, ends within the measurement window.
func fits(start time.Time, last, window time.Duration) bool {
	return time.Since(start)+last <= window
}

// endToEndRun measures the workload untraced: whole batches until the
// window has elapsed, each preceded by a round of set-up probes, every
// output checked.
func endToEndRun(w workload, env benchEnv) (result, error) {
	runs := w.runs(env.seed)
	goldens, err := loadGoldens(env.goldens, runs)
	if err != nil {
		return result{}, err
	}
	speed := startSpeedLog()
	defer speed.Stop()

	var probes []batch
	probeRound := func() error {
		// Start each round from a collected heap, so the probes do not pay
		// for sweeping what the previous batch left.
		runtime.GC()
		for i := 0; i < setupRound; i++ {
			b, err := runBatch(w, env.seed, nil, true)
			if err != nil {
				return fmt.Errorf("set-up probe: %w", err)
			}
			probes = append(probes, b)
		}
		return nil
	}

	var bs []batch
	start := time.Now()
	for len(bs) == 0 || fits(start, bs[len(bs)-1].wall, env.window) {
		if err := probeRound(); err != nil {
			return result{}, err
		}
		b, err := runBatch(w, env.seed, nil, false)
		if err != nil {
			return result{}, err
		}
		bs = append(bs, b)
	}
	if err := probeRound(); err != nil {
		return result{}, err
	}

	// Every timing leaves out the sampler's own runs and is brought to
	// the nominal host speed over its interval (speed.go); the batch walls
	// as measured go to stderr.
	var setups []float64
	for _, b := range probes {
		setups = append(setups, speed.adjust(b.t0, b.t0.Add(b.setup), b.setup))
	}
	var t tally
	var walls, rawWalls, cpus, rates, rss []float64
	perPoint := map[ptKey][]float64{} // each point's times over the batches
	for _, b := range bs {
		t.add(b, checkBatch(b, runs, goldens))
		end := b.t0.Add(b.wall)
		wall := speed.adjust(b.t0, end, b.wall)
		rawWalls = append(rawWalls, b.wall.Seconds())
		walls = append(walls, wall)
		cpus = append(cpus, speed.adjust(b.t0, end, b.cpu))
		rss = append(rss, b.rssMB)
		rates = append(rates, float64(len(b.points))/wall)
		for _, e := range b.points {
			k := ptKey{e.run, e.pt.ID}
			d := speed.adjust(b.t0.Add(e.start), b.t0.Add(e.end), e.end-e.start)
			perPoint[k] = append(perPoint[k], d)
		}
	}
	// The points' times are dense around the fastest and slowest classes
	// and sparse in between, where the median falls; each point's own
	// median over the batches settles that rank before the median over
	// points is taken.
	var pointS []float64
	for _, xs := range perPoint {
		pointS = append(pointS, median(xs))
	}
	if err := checkDeterminism(w, env, bs); err != nil {
		t.mismatch = append(t.mismatch, err.Error())
	}

	r := result{Metrics: map[string]metric{
		"setup_s":      {median(setups), "s"},
		"wall_s":       {median(walls), "s"},
		"cpu_s":        {median(cpus), "s"},
		"points_per_s": {median(rates), "1/s"},
		"point_p50_s":  {median(pointS), "s"},
		"peak_rss_mb":  {median(rss), "MiB"},
	}}
	t.finish(&r, env.stderr)
	r.Metrics["ok_rate"] = metric{1 - float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio"}
	fmt.Fprintf(env.stderr, "perfbench: %s: %d points, %d workers, %d set-up samples (p10 %.3g, p90 %.3g s), batch walls %.3f s (%.3f s as measured), batch peak RSS %.1f MiB, %d host-speed samples\n",
		w.name, len(pointS), runtime.GOMAXPROCS(0), len(setups), quantile(setups, 0.1), quantile(setups, 0.9), walls, rawWalls, rss, speed.samples())
	return r, nil
}

// detRecord is the determinism record of a workload and seed: the
// optimizer counts and a digest of every output of one batch. Two runs
// of the same build must produce the same record. A change that claims
// only speed must too, which is checked by comparing the printed records
// of the two builds, not automatically.
type detRecord struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Config   string           `json:"config"`
	Build    string           `json:"build"`
	Counts   map[string]int64 `json:"counts"`
	Digest   string           `json:"digest"`
}

// outputDigest hashes every point's identity, analytic bound and
// simulated statistics, bit for bit, in batch order.
func outputDigest(b batch) string {
	h := sha256.New()
	f := func(x float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, e := range b.points {
		fmt.Fprintf(h, "%d|%s|", e.run, e.pt.ID)
		f(e.res.Analytic)
		keys := make([]string, 0, len(e.res.Sim))
		for k := range e.res.Sim {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=", k)
			f(e.res.Sim[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// configDigest names the workload's configuration, so a record written
// by a differently configured benchmark is never compared.
func configDigest(w workload, seed int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(w.backend, w.flags, w.runs(seed))))
	return hex.EncodeToString(sum[:6])
}

// buildDigest names the code a record comes from: a digest of the
// benchmark binary, which run.sh builds from the checkout's sources.
func buildDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// checkDeterminism requires every batch of the run to produce the same
// counts and outputs, prints the record, and compares it with the
// record an earlier run of the same build left for the same workload
// and seed (writing it on the first run). Records of other builds are
// never compared.
func checkDeterminism(w workload, env benchEnv, bs []batch) error {
	build, err := buildDigest()
	if err != nil {
		return fmt.Errorf("determinism: %w", err)
	}
	rec := detRecord{
		Workload: w.name,
		Seed:     env.seed,
		Config:   configDigest(w, env.seed),
		Build:    build,
		Counts:   bs[0].counts,
		Digest:   outputDigest(bs[0]),
	}
	for i, b := range bs[1:] {
		if d := outputDigest(b); d != rec.Digest {
			return fmt.Errorf("determinism: batch %d outputs differ from batch 0", i+1)
		}
		if !reflect.DeepEqual(b.counts, rec.Counts) {
			return fmt.Errorf("determinism: batch %d counts %v differ from batch 0 %v", i+1, b.counts, rec.Counts)
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.stderr, "perfbench: determinism record %s\n", line)

	path := filepath.Join(env.outDir, "perfbench-records", fmt.Sprintf("%s-seed%d-%s-%s.json", w.name, env.seed, rec.Config, rec.Build))
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev detRecord
		if err := json.Unmarshal(old, &prev); err != nil {
			return fmt.Errorf("determinism: %s: %w", path, err)
		}
		if prev.Digest != rec.Digest || !reflect.DeepEqual(prev.Counts, rec.Counts) {
			return fmt.Errorf("determinism: this run's record %s differs from the earlier record %s", line, old)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, line, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}
