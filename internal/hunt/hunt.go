// Package hunt is the worst-case-seed hunter: a small deterministic
// generational search over the seed space of one frozen instance. A
// candidate seed drives everything a sweep row's seed drives — robot IDs,
// placement, the activation scheduler's stream, and the fault schedule —
// so the hunter is searching the adversary's whole choice space
// (placement x activation x fault schedule) with one integer, and any
// seed it surfaces replays exactly through `gathersim -seed`.
//
// The search is elitist: generation 0 is a uniform sample, every later
// generation keeps the worst seeds found so far and fills the rest of the
// population with bit-flip mutants of them plus fresh immigrants. Elitism
// makes the incumbent monotone — the final worst candidate is never
// better than generation 0's — and every draw comes from one seeded
// stream, so a hunt is a pure function of its Config: the package is in
// the repolint deterministic set.
package hunt

import (
	"fmt"
	"sort"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/fault"
)

// Config describes one hunt. The zero values of the search knobs select
// small defaults (see Run); the instance fields are required.
type Config struct {
	G         *graph.Graph  // frozen instance under attack (shared, read-only)
	Cfg       gather.Config // its schedule config; zero derives T from n
	Algo      string        // algorithm under attack
	Radius    int           // hopmeet radius
	K         int           // robots
	Placement string        // placement engine drawn per candidate seed
	Sched     string        // activation scheduler spec
	Faults    fault.Spec    // fault class whose schedule the hunter searches
	Churn     float64       // per-round edge-churn probability
	MaxRounds int           // round cap override (0 = algorithm-derived)

	Population  int    // candidates per generation (default 8)
	Generations int    // generations after generation 0 (default 3)
	Elite       int    // worst seeds carried into each next generation (default Population/4)
	Seed        uint64 // the hunter's own draw stream

	Parallelism int // runner worker-pool size (0 = GOMAXPROCS)
}

// Candidate is one evaluated seed.
type Candidate struct {
	Seed    uint64
	Rounds  int
	Moves   int64
	Crashed bool // the run panicked (contained); ranked below every clean run
}

// Result is a finished hunt.
type Result struct {
	Best      Candidate   // worst-case candidate over the whole hunt
	Gen0Best  Candidate   // worst candidate of the uniform sample alone
	GenBest   []Candidate // incumbent after each generation (index 0 = generation 0)
	Evaluated int         // distinct seeds simulated
}

// Worse reports whether a is a worse case than b — the hunter's ranking:
// clean runs beat crashed ones (a crash ends a run, it doesn't stretch
// it), more rounds beat fewer, then more moves, then the smaller seed so
// ties resolve identically everywhere.
func Worse(a, b Candidate) bool {
	if a.Crashed != b.Crashed {
		return !a.Crashed
	}
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	if a.Moves != b.Moves {
		return a.Moves > b.Moves
	}
	return a.Seed < b.Seed
}

// Run executes the hunt. Every candidate evaluation routes through the
// shared parallel runner with pooled per-worker state; results are
// collected in submission order, so the hunt is bit-identical at every
// Parallelism setting.
func Run(cfg Config) (Result, error) {
	if cfg.G == nil {
		return Result{}, fmt.Errorf("hunt: no instance graph")
	}
	if cfg.K < 1 {
		return Result{}, fmt.Errorf("hunt: need at least one robot")
	}
	if cfg.Placement == "" {
		cfg.Placement = "maxmin"
	}
	if cfg.Sched == "" {
		cfg.Sched = "full"
	}
	pop := cfg.Population
	if pop <= 0 {
		pop = 8
	}
	gens := cfg.Generations
	if gens <= 0 {
		gens = 3
	}
	elite := cfg.Elite
	if elite <= 0 {
		elite = pop / 4
	}
	if elite < 1 {
		elite = 1
	}
	if elite > pop {
		elite = pop
	}

	rng := graph.NewRNG(cfg.Seed)
	seen := map[uint64]Candidate{}
	res := Result{}

	// ranked returns the current population's candidates worst-first.
	ranked := func(seeds []uint64) []Candidate {
		cands := make([]Candidate, 0, len(seeds))
		for _, s := range seeds {
			cands = append(cands, seen[s])
		}
		sort.Slice(cands, func(i, j int) bool { return Worse(cands[i], cands[j]) })
		return cands
	}

	seeds := make([]uint64, pop)
	for g := 0; g <= gens; g++ {
		if g == 0 {
			for i := range seeds {
				seeds[i] = rng.Uint64()
			}
		} else {
			// Elitism: the worst seeds survive verbatim; the rest of the
			// population is bit-flip mutants of them plus fresh immigrants.
			prev := ranked(seeds)
			next := make([]uint64, 0, pop)
			for i := 0; i < elite && i < len(prev); i++ {
				next = append(next, prev[i].Seed)
			}
			for len(next) < pop {
				if len(next) >= pop-2 {
					next = append(next, rng.Uint64()) // immigrant
					continue
				}
				parent := next[int(rng.Uint64()%uint64(elite))]
				flips := 1 + int(rng.Uint64()%3)
				for f := 0; f < flips; f++ {
					parent ^= 1 << (rng.Uint64() % 64)
				}
				next = append(next, parent)
			}
			seeds = next
		}
		if err := evaluate(cfg, seeds, seen, &res.Evaluated); err != nil {
			return Result{}, err
		}
		best := ranked(seeds)[0]
		if g == 0 {
			res.Gen0Best = best
			res.Best = best
		} else if Worse(best, res.Best) {
			res.Best = best
		}
		res.GenBest = append(res.GenBest, res.Best)
	}
	return res, nil
}

// evaluate simulates every not-yet-seen seed of the population through
// the runner and memoizes the candidates. Re-ranked elites never re-run.
func evaluate(cfg Config, seeds []uint64, seen map[uint64]Candidate, evaluated *int) error {
	var fresh []uint64
	dup := map[uint64]bool{}
	for _, s := range seeds {
		if _, ok := seen[s]; ok || dup[s] {
			continue
		}
		dup[s] = true
		fresh = append(fresh, s)
	}
	if len(fresh) == 0 {
		return nil
	}
	*evaluated += len(fresh)

	jobs := make([]runner.Job, len(fresh))
	for i, s := range fresh {
		scSeed := s
		jobs[i] = runner.Job{Meta: scSeed,
			Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
				// A candidate is a sweep row of its seed, on the hunt's config.
				sc, err := serve.RowScenario(cfg.G, cfg.Placement, cfg.K, cfg.Sched, scSeed)
				if err != nil {
					return nil, 0, err
				}
				sc.Cfg = cfg.Cfg
				w, cap, err := sc.World(a, cfg.Algo, cfg.Radius)
				if err != nil {
					return nil, 0, err
				}
				if cfg.MaxRounds > 0 {
					cap = cfg.MaxRounds
				}
				plan := cfg.Faults.Plan(cfg.K, cap, scSeed^gather.FaultSeedSalt)
				if err := fault.Apply(w, sc.IDs, plan); err != nil {
					return nil, 0, err
				}
				if cfg.Churn > 0 {
					// Churn is part of the searched schedule: each candidate
					// draws its own overlay stream (unlike a sweep, where one
					// overlay is shared per instance), so overlays here are
					// per-run.
					if err := w.SetOverlay(graph.NewOverlay(sc.G, cfg.Churn, scSeed^gather.ChurnSeedSalt)); err != nil {
						return nil, 0, err
					}
				}
				return w, cap, nil
			}}
	}

	results, _ := runner.New(cfg.Parallelism).Run(cfg.Seed, jobs)
	for _, jr := range results {
		s := jr.Meta.(uint64)
		if jr.Err != nil {
			// Only a contained panic is a candidate outcome; a plain build
			// error is a configuration mistake and fails the hunt.
			if jr.Stack == "" {
				return fmt.Errorf("hunt: seed %d: %w", s, jr.Err)
			}
			seen[s] = Candidate{Seed: s, Crashed: true}
			continue
		}
		seen[s] = Candidate{Seed: s, Rounds: jr.Res.Rounds, Moves: jr.Res.TotalMoves}
	}
	return nil
}
