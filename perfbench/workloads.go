package main

import (
	"sort"

	"deltasched/internal/experiments"
	"deltasched/internal/scenario"
)

// scenarioRun is one runner.App.Run call of a workload: a registered
// scenario, its configuration, and how its outputs are checked.
type scenarioRun struct {
	name string
	cfg  scenario.Config

	// golden names the CSV under perfbench/testdata holding the analytic
	// bound of every point. Analytic runs must reproduce it; sim runs use
	// it as the bound a point without its own violation fraction is
	// checked against.
	golden string

	// eps is the violation probability the simulated delay must respect
	// at the point's bound; simeps bounds the right-censored volume.
	// Both are zero on analytic runs.
	eps, simeps float64
}

// workload is one closed batch of scenario runs under one backend.
type workload struct {
	name    string
	backend scenario.Backend
	flags   []string // runner flags beyond -backend
	runs    func(seed int64) []scenarioRun
}

// tandemSlots is the slot budget of each tandem-serve point, split
// across its two replications: three batches fit a 30 s run on one core.
const tandemSlots = 300000

var workloads = map[string]workload{
	"figs-analytic": {
		name:    "figs-analytic",
		backend: scenario.Analytic,
		runs: func(int64) []scenarioRun {
			var out []scenarioRun
			for _, f := range []string{"fig1", "fig2", "fig3"} {
				out = append(out, scenarioRun{name: f, cfg: scenario.Config{"quick": true}, golden: f + ".csv"})
			}
			return out
		},
	},
	"figs-sim": {
		name:    "figs-sim",
		backend: scenario.Sim,
		runs: func(seed int64) []scenarioRun {
			// fig2 alone, at half the scenario's default slot budget, so
			// that a traced run (the batch twice, then a replay that
			// times each simulation's run and fill twice) ends within
			// three minutes on one core even when the host runs at half
			// speed. fig1 does not fit: its H=5 and H=10 BMUX points at
			// 95% load need more slots to keep the volume still queued at
			// the end under simeps (0.016 at 10,000 slots on seed 10),
			// while no fig2 point leaves any queued at 25,000 (seeds
			// 1-16). The replay reads every key from the configuration, so
			// all are set.
			return []scenarioRun{{
				name:   "fig2",
				cfg:    scenario.Config{"quick": true, "seed": seed, "slots": 25000, "simeps": 0.01},
				golden: "fig2.csv",
				eps:    experiments.PaperSetup().Eps,
				simeps: 0.01,
			}}
		},
	},
	"tandem-serve": {
		name:    "tandem-serve",
		backend: scenario.Both,
		flags:   []string{"-reps", "2"},
		runs: func(seed int64) []scenarioRun {
			// Every key the scenario reads is set, so the replay reads the
			// same values without repeating the scenario's defaults.
			base := scenario.Config{
				"H": 10, "C": 20.0, "n0": 30, "nc": 60, "edf-d0": 5.0, "edf-dc": 50.0,
				"agg": "count", "slots": tandemSlots, "seed": seed, "eps": 1e-2,
			}
			return []scenarioRun{
				{name: "tandem", cfg: base.With("sched", "edf"), eps: 1e-2, simeps: 1e-2},
				{name: "tandem", cfg: base.With("sched", "edf").With("pktsize", 1.5), eps: 1e-2, simeps: 1e-2},
				{name: "tandem", cfg: base.With("sched", "drr"), eps: 1e-2, simeps: 1e-2},
			}
		},
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
