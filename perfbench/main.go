// Command perfbench is the repository's end-to-end benchmark. It drives
// registered scenarios through runner.App.Run — the path the CLIs take —
// as closed batches, checks every output, and prints one JSON result
// line: the end-to-end metrics, or with -trace 1 the per-layer split.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the build directory:
//
//	bash perfbench/run.sh --workload figs-analytic --seed 1 --seconds 30 --trace 0
//
// See README.md beside this file for the workloads, the metrics and how
// to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result.
// It returns the process exit code: 0 when a result line was printed
// (correct or not), 1 when the benchmark could not run, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed of the simulated workloads (figs-analytic is deterministic)")
		seconds = fs.Float64("seconds", 30, "measurement window: whole batches run while the next one is expected to end within it (at least one runs)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// run.sh checks the checkout and exports the build directory, where
	// determinism records and span traces go.
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		fmt.Fprintln(stderr, "perfbench: CARGO_TARGET_DIR is not set; run through perfbench/run.sh")
		return 1
	}
	// One core: the host-speed reference (speed.go) tracks the host only
	// when it alternates with the work on the same core. Two busy
	// workers on a two-vCPU guest slow each other by amounts that vary
	// with what each runs, and the reference then drifts apart from the
	// work. The runner and the replication pools size themselves from
	// GOMAXPROCS, so every worker count is 1.
	runtime.GOMAXPROCS(1)
	env := benchEnv{
		outDir:  dir,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		stderr:  stderr,
		goldens: filepath.Join("perfbench", "testdata"),
	}

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, env)
	} else {
		res, err = endToEndRun(w, env)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// benchEnv is what every run shares: where the goldens and the build
// directory are, the workload seed and the measurement window.
type benchEnv struct {
	outDir, goldens string
	seed            int64
	window          time.Duration
	stderr          io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeResult prints the metrics in name order as human-readable lines,
// then the JSON object as the last line.
func writeResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if _, err := fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
