package gather

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// The quiet-round oracle: World.Run jumps the round clock while every
// live robot promises to stay idle under its view (sim.Idler), and a
// tracer turns the jump off. Every case below runs twice, once by plain Run and once with a
// no-op tracer installed, which steps every round; the two outcomes must
// be identical but for Result.Stepped.

var (
	quietWorkloads  = []string{"cycle:8", "path:9", "grid:3x4", "torus:3x4"}
	quietAlgos      = []string{"faster", "uxs", "undispersed", "hopmeet"}
	quietPlacements = []string{"maxmin", "dispersed", "random", "clustered"}
	quietAdversary  = []string{"none", "crash:1", "recover:1,37", "byz:1", "churn"}
)

// quietScenario places k robots on g by the named placement, with IDs
// and positions drawn from seed. The schedule is shortened so a run that
// goes through every stage stays cheap to step: a short exploration
// sequence (T = 16) and hop-meeting cycles sized by the known maximum
// degree (Remark 14). The oracle compares outcomes, not verdicts, and a
// jump's correctness depends on neither length.
func quietScenario(t *testing.T, g *graph.Graph, placement string, k int, seed uint64) *Scenario {
	t.Helper()
	rng := graph.NewRNG(seed)
	var pos []int
	switch placement {
	case "maxmin":
		pos = place.MaxMinDispersed(g, k, rng)
	case "dispersed":
		pos = place.RandomDispersed(g, k, rng)
	case "random":
		pos = place.Random(g, k, rng)
	case "clustered":
		pos = place.Clustered(g, k, max(k/2, 1), rng)
	default:
		t.Fatalf("unknown placement %q", placement)
	}
	return &Scenario{G: g, IDs: AssignIDs(k, g.N(), rng), Positions: pos, Cfg: Config{UXSLen: 16, KnownMaxDegree: g.MaxDegree()}}
}

// quietOutcome runs one case on a fresh world (hopmeet at radius 2) and
// returns its outcome text, the result with Stepped blanked or the
// contained panic, plus the rounds it simulated and stepped. Seeded
// crash rounds are drawn over horizon; forced steps every round.
func quietOutcome(t *testing.T, sc *Scenario, algo, adv string, horizon int, seed uint64, forced bool) (out string, rounds, stepped int) {
	t.Helper()
	w, cap, err := sc.World(nil, algo, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, churn := adv, 0.0
	if adv == "churn" {
		spec, churn = "none", 0.2
	}
	installFaults(t, sc, w, nil, spec, churn, horizon, seed, seed)
	if forced {
		w.SetTracer(sim.TracerFunc(func(*sim.World) {}))
	}
	res, err := w.SafeRun(cap)
	rounds, stepped = res.Rounds, res.Stepped
	res.Stepped = 0
	return fmt.Sprintf("%+v err=%v", res, err), rounds, stepped
}

func TestQuietJumpMatchesStepping(t *testing.T) {
	type tally struct {
		sync.Mutex
		rounds, stepped map[string]int // per algorithm, over the fault-free dispersed cases
	}
	dispersed := tally{rounds: map[string]int{}, stepped: map[string]int{}}
	t.Run("cases", func(t *testing.T) {
		for _, algo := range quietAlgos {
			for _, wl := range quietWorkloads {
				algo, wl := algo, wl
				t.Run(algo+"/"+wl, func(t *testing.T) {
					t.Parallel()
					g, err := graph.BuildWorkload(wl, graph.NewRNG(1))
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{2, 3, g.N()/2 + 1} {
						for pi, placement := range quietPlacements {
							seed := uint64(k*len(quietPlacements) + pi)
							sc := quietScenario(t, g, placement, k, seed)
							// Seeded crashes land inside the fault-free run,
							// where they cut its windows.
							horizon := 0
							for _, adv := range quietAdversary {
								want, r, _ := quietOutcome(t, sc, algo, adv, horizon, seed, true)
								got, _, s := quietOutcome(t, sc, algo, adv, horizon, seed, false)
								if got != want {
									t.Errorf("k=%d %s %s: jumping diverged from stepping:\n got  %s\n want %s", k, placement, adv, got, want)
								}
								if adv == "none" {
									horizon = r
									if placement == "dispersed" {
										dispersed.Lock()
										dispersed.rounds[algo] += r
										dispersed.stepped[algo] += s
										dispersed.Unlock()
									}
								}
							}
						}
					}
				})
			}
		}
	})
	for _, algo := range quietAlgos {
		if r, s := dispersed.rounds[algo], dispersed.stepped[algo]; s >= r {
			t.Errorf("%s: dispersed runs stepped %d of %d rounds; the jump never fired", algo, s, r)
		}
	}
}

// The chunked twin: a world advanced by Run(w.Round()+c) for varying
// chunk lengths c against a twin advanced by Step, with every agent's
// full state compared after each chunk. Chunk boundaries cut the windows
// at many offsets, so a Skip that is wrong only for some r, or that
// forgets a counter no Result field shows, fails here; so does a promise
// that only delays a state change to the next stepped round.
func TestQuietJumpChunked(t *testing.T) {
	type tally struct{ rounds, stepped int }
	jumps := map[string]*tally{}
	for _, algo := range quietAlgos {
		jumps[algo] = &tally{}
	}
	for _, c := range []struct {
		wl, placement string
		k             int
		seed          uint64
	}{
		{"path:9", "maxmin", 2, 5},
		{"grid:3x4", "maxmin", 7, 5},
		{"grid:3x4", "clustered", 7, 5},
		{"grid:3x4", "clustered", 7, 6},
		{"torus:3x4", "clustered", 5, 5},
		{"cycle:8", "clustered", 4, 7},
		{"grid:3x4", "random", 7, 5},
		{"torus:3x4", "random", 7, 6},
		{"path:9", "random", 4, 7},
	} {
		g, err := graph.BuildWorkload(c.wl, graph.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		sc := quietScenario(t, g, c.placement, c.k, c.seed)
		for _, algo := range quietAlgos {
			for _, adv := range []string{"none", "recover:1,37@100"} {
				name := fmt.Sprintf("%s k=%d %s seed %d %s %s", c.wl, c.k, c.placement, c.seed, algo, adv)
				rounds, stepped := chunkedTwin(t, name, func() (*sim.World, []sim.Agent, int) {
					return quietTwin(t, sc, algo, adv)
				})
				jumps[algo].rounds += rounds
				jumps[algo].stepped += stepped
			}
		}
	}
	for _, algo := range quietAlgos {
		if j := jumps[algo]; j.stepped >= j.rounds {
			t.Errorf("%s: stepped %d of %d rounds; the jump never fired", algo, j.stepped, j.rounds)
		}
	}
}

// chunkedTwin runs the chunked comparison on two worlds built by mk, one
// advanced by Run in chunks and one by Step, and returns the rounds the
// first simulated and stepped.
func chunkedTwin(t *testing.T, name string, mk func() (*sim.World, []sim.Agent, int)) (rounds, stepped int) {
	t.Helper()
	w, agents, cap := mk()
	ref, refAgents, _ := mk()
	for i := 0; w.Round() < cap && !w.AllDone(); i++ {
		// A run that panics outside the model (amnesia can strand a
		// finder's map) must panic in the same round with the same
		// message.
		gotPanic := contained(func() { w.Run(w.Round() + 1 + (i*i*37)%509) })
		wantPanic := contained(func() {
			for ref.Round() < w.Round() && !ref.AllDone() {
				ref.Step()
			}
			if gotPanic != "" {
				ref.Step()
			}
		})
		got, want := w.Summary(), ref.Summary()
		got.Stepped, want.Stepped = 0, 0
		if gotPanic != wantPanic || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(agents, refAgents) {
			t.Fatalf("%s: jumping world diverged from stepping by round %d:\n got  %+v %s\n want %+v %s", name, w.Round(), got, gotPanic, want, wantPanic)
		}
		if gotPanic != "" {
			break
		}
	}
	res := w.Summary()
	return res.Rounds, res.Stepped
}

// Targeted scenarios for the co-located rules, each built so that the
// rule fires while every other robot is idle: a promise that ignored it
// would jump over the state change the rule makes. Each runs through the
// chunked twin and must also jump somewhere.
func TestQuietJumpCoLocatedRules(t *testing.T) {
	cfg := Config{UXSLen: 16, KnownMaxDegree: 2}
	cycle := graph.Cycle(8)
	world := func(agents []sim.Agent, pos []int) (*sim.World, []sim.Agent) {
		w, err := sim.NewWorld(cycle, agents, pos)
		if err != nil {
			t.Fatal(err)
		}
		return w, agents
	}
	// ug and phase2 build Undispersed-Gathering robots three rounds into
	// Phase 2: the given pair on node 0 and a waiter alone on node 4.
	ug := func(id, state, groupid int) func() *UGAgent {
		return func() *UGAgent {
			a := NewUGAgent(8, id)
			u := a.U
			u.inited, u.r, u.state, u.groupid = true, R1(8)+3, state, groupid
			u.Sync(&a.Self)
			return a
		}
	}
	phase2 := func(a, b func() *UGAgent) func() (*sim.World, []sim.Agent, int) {
		return func() (*sim.World, []sim.Agent, int) {
			w, agents := world([]sim.Agent{a(), b(), ug(11, StateWaiter, -1)()}, []int{0, 0, 4})
			return w, agents, R(8) + 1
		}
	}
	for _, c := range []struct {
		name string
		mk   func() (*sim.World, []sim.Agent, int)
	}{
		// Robots 2 and 4 both start in a 0-bit cycle, on one node: they
		// must freeze in round 0, not when a cycle boundary is stepped.
		{"hopmeet pair in a 0-bit cycle", func() (*sim.World, []sim.Agent, int) {
			h := NewHopMeetAgent(cfg, 1, 8, 2)
			w, agents := world([]sim.Agent{h, NewHopMeetAgent(cfg, 1, 8, 4)}, []int{0, 0})
			return w, agents, h.H.total
		}},
		// Robot 3 follows robot 6, which waits on another node; robot 10,
		// larger than 6, waits first beside robot 3, which must re-point
		// to it at once.
		{"uxs follower by a robot larger than its leader", func() (*sim.World, []sim.Agent, int) {
			f := NewUXSGAgent(cfg, 8, 3)
			f.G.leader, f.Self.Leader = 6, 6
			w, agents := world([]sim.Agent{f, NewUXSGAgent(cfg, 8, 6), NewUXSGAgent(cfg, 8, 10)}, []int{0, 4, 0})
			return w, agents, cfg.UXSGatherBound(8)
		}},
		// In Phase 2, a finder rests at home after its tour: finder 5
		// beside a helper of group 3, which parks it; finder 4 beside
		// helper 7 of group 6, which it re-points, or beside waiter 9,
		// which it captures.
		{"undispersed finder by a smaller helper", phase2(ug(5, StateFinder, 5), ug(8, StateHelper, 3))},
		{"undispersed helper by a smaller finder", phase2(ug(4, StateFinder, 4), ug(7, StateHelper, 6))},
		{"undispersed waiter by a finder", phase2(ug(4, StateFinder, 4), ug(9, StateWaiter, -1))},
	} {
		rounds, stepped := chunkedTwin(t, c.name, c.mk)
		if stepped >= rounds {
			t.Errorf("%s: stepped %d of %d rounds; the jump never fired", c.name, stepped, rounds)
		}
	}
}

// quietTwin builds a fresh world for the algorithm (hopmeet at radius 2)
// with the fault plan installed, and returns it with its agents and cap.
func quietTwin(t *testing.T, sc *Scenario, algo, adv string) (*sim.World, []sim.Agent, int) {
	t.Helper()
	mk, cap, err := sc.algorithm(algo, 2)
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]sim.Agent, len(sc.IDs))
	for i, id := range sc.IDs {
		agents[i] = mk(id)
	}
	w, err := sim.NewWorld(sc.G, agents, sc.Positions)
	if err != nil {
		t.Fatal(err)
	}
	installFaults(t, sc, w, nil, adv, 0, cap, 1, 1)
	return w, agents, cap
}

// contained runs f and returns the text of the panic it raised, or "".
func contained(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
