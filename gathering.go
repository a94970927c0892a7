// Package gathering is the public API of the library: a faithful, fully
// self-contained reproduction of "Fast Deterministic Gathering with
// Detection on Arbitrary Graphs: The Power of Many Robots" (Molla, Mondal,
// Moses Jr., IPDPS 2023).
//
// The facade re-exports the pieces a downstream user needs: port-labeled
// anonymous graphs and generators, placement engines, the synchronous
// robot simulator, and the paper's four algorithms plus baselines. See
// README.md for a tour and DESIGN.md for the system inventory.
//
// Quick start:
//
//	rng := gathering.NewRNG(1)
//	g, _ := gathering.BuildWorkload("cycle:12", rng) // or: Cycle(12).WithPermutedPorts(rng)
//	sc := &gathering.Scenario{
//		G:         g,
//		IDs:       gathering.AssignIDs(7, g.N(), rng),
//		Positions: gathering.MaxMinDispersed(g, 7, rng),
//	}
//	res, err := sc.Run("faster", 0, 0) // 0 rounds = the algorithm's cap
//	// res.DetectionCorrect reports gathering with detection.
//	// Robots derive the exploration-sequence length T from n alone.
//
// Algorithms are picked by name — faster, uxs, undispersed, hopmeet
// (with a radius), dessmark and beep — and each comes with the round cap
// of its theorem: Scenario.World returns a world to step, trace or fault
// together with that cap, and Scenario.Run runs one to completion.
//
// Graphs are immutable once frozen (Builder.Freeze, or any generator or
// workload build): one *Graph may back any number of concurrent scenarios
// and worlds. The workload catalog (ParseWorkload / Catalog) names every
// graph family the harness can build as a "name:params" spec.
package gathering

import (
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/uxs"
)

// Core types, re-exported for external use.
type (
	// Graph is a connected, undirected, simple, port-labeled graph in
	// immutable CSR form; safe to share across goroutines.
	Graph = graph.Graph
	// Builder is the mutable construction phase: AddEdge then Freeze.
	Builder = graph.Builder
	// Workload is a parsed catalog spec ("torus:32x32"); Build(rng)
	// constructs its frozen graph.
	Workload = graph.Workload
	// CatalogEntry describes one workload family (name, syntax, summary).
	CatalogEntry = graph.CatalogEntry
	// RNG is the library's deterministic random generator.
	RNG = graph.RNG
	// Family names a graph family for sweeps.
	Family = graph.Family
	// Scenario is a gathering instance: graph, IDs, positions, config.
	Scenario = gather.Scenario
	// Config is the run-wide parameter set every robot derives from n.
	Config = gather.Config
	// Result summarizes a run (rounds, detection verdicts, move counts).
	Result = sim.Result
	// World is the synchronous round engine, for custom agent work. Its
	// Reset method rewinds a world for reuse (grow-only, zero allocations
	// when shapes match) — the substrate of pooled sweeps.
	World = sim.World
	// Agent is the robot-algorithm interface of the simulator.
	Agent = sim.Agent
	// Resettable is the optional pooling protocol of an Agent: Reset(id)
	// restores constructor state so arenas can reuse agents across runs.
	Resettable = sim.Resettable
	// Arena is a worker-owned pool of simulation state (one long-lived
	// world + agent set, one churn overlay) for zero-rebuild sweeps: every
	// Runner worker owns one and hands it to Job.Build, which passes it to
	// Scenario.World. A nil *Arena builds fresh.
	Arena = gather.Arena
	// Mode selects scaled or paper-faithful UXS lengths.
	Mode = uxs.Mode
	// Tracer observes the world after every round.
	Tracer = sim.Tracer
	// Scheduler decides which robots are activated each round; see
	// FullSync (the paper's model and the default), SemiSync and
	// Adversarial. One scheduler instance drives exactly one run.
	Scheduler = sim.Scheduler
	// FullSync is the fully-synchronous scheduler of the paper.
	FullSync = sim.FullSync
	// SemiSync is the seeded randomized semi-synchronous scheduler.
	SemiSync = sim.SemiSync
	// Adversarial is the deterministic gathering-delaying scheduler.
	Adversarial = sim.Adversarial
	// OccupancyTracer records distinct occupied nodes per round.
	OccupancyTracer = sim.OccupancyTracer
	// PositionLogger logs robot positions every N rounds.
	PositionLogger = sim.PositionLogger
	// InvariantTracer validates engine invariants every round.
	InvariantTracer = sim.InvariantTracer
	// FinderAgent is a standalone map-building finder (with token helper).
	FinderAgent = mapping.FinderAgent
	// TokenAgent is the movable-token helper agent.
	TokenAgent = mapping.TokenAgent
	// Runner is the sharded parallel scenario-execution engine: batches
	// of independent worlds run on a bounded worker pool with results in
	// submission order, bit-identical at any worker count.
	Runner = runner.Runner
	// Job is one unit of parallel work: a world builder, fed a
	// deterministic per-job seed and the worker's Arena, that returns the
	// world and its round cap.
	Job = runner.Job
	// JobResult pairs a job's outcome with its submission index and seed.
	JobResult = runner.JobResult
	// RunnerStats aggregates a finished batch (rounds, moves, wall/work time).
	RunnerStats = runner.Stats
)

// UXS length modes.
const (
	// Scaled uses verified Θ(n³)-length exploration sequences (default).
	Scaled = uxs.Scaled
	// Faithful uses the paper's Θ(n⁵ log n) lengths (tiny n only).
	Faithful = uxs.Faithful
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return graph.NewRNG(seed) }

// Graph generators.
var (
	// Path returns the path graph on n nodes.
	Path = graph.Path
	// Cycle returns the cycle graph on n >= 3 nodes.
	Cycle = graph.Cycle
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Star returns the star graph on n nodes.
	Star = graph.Star
	// Grid returns the rows x cols grid.
	Grid = graph.Grid
	// Torus returns the rows x cols torus.
	Torus = graph.Torus
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// Lollipop returns a clique with a path tail.
	Lollipop = graph.Lollipop
	// Maze returns a rows x cols maze with extra openings.
	Maze = graph.Maze
	// Wheel returns the wheel graph (hub + rim cycle).
	Wheel = graph.Wheel
	// Petersen returns the Petersen graph.
	Petersen = graph.Petersen
	// Circulant returns the circulant graph C_n(jumps).
	Circulant = graph.Circulant
	// Caterpillar returns a caterpillar tree (spine + pendant leaves).
	Caterpillar = graph.Caterpillar
	// RandomRegular returns a random connected d-regular graph, or an
	// error for infeasible parameters / exhausted rejection budget.
	RandomRegular = graph.RandomRegular
	// MustRandomRegular is RandomRegular that panics on error.
	MustRandomRegular = graph.MustRandomRegular
	// RandomTree returns a random tree on n nodes.
	RandomTree = graph.RandomTree
	// RandomConnected returns a random connected graph with n nodes and m
	// edges, or an error for infeasible parameters.
	RandomConnected = graph.RandomConnected
	// MustRandomConnected is RandomConnected that panics on error.
	MustRandomConnected = graph.MustRandomConnected
	// FromFamily builds a named-family graph of about n nodes.
	FromFamily = graph.FromFamily
	// AllFamilies lists the default sweep families.
	AllFamilies = graph.AllFamilies
)

// Graph construction and the workload catalog.
var (
	// NewBuilder starts the mutable construction phase of a graph.
	NewBuilder = graph.NewBuilder
	// ParseWorkload parses a catalog spec such as "torus:32x32",
	// "rreg:1024,4" or "maze:64" into a buildable Workload.
	ParseWorkload = graph.ParseWorkload
	// MustWorkload is ParseWorkload that panics on error.
	MustWorkload = graph.MustWorkload
	// BuildWorkload parses and builds a spec in one step.
	BuildWorkload = graph.BuildWorkload
	// Catalog lists every registered workload family, sorted by name.
	Catalog = graph.Catalog
)

// Placements.
var (
	// RandomPlacement places k robots uniformly (repeats allowed).
	RandomPlacement = place.Random
	// RandomDispersed places k robots on distinct random nodes.
	RandomDispersed = place.RandomDispersed
	// Clustered places k robots into c co-located groups.
	Clustered = place.Clustered
	// MaxMinDispersed is the adversarial max-min placement of Lemma 15.
	MaxMinDispersed = place.MaxMinDispersed
	// PairAtDistance finds two nodes at an exact hop distance.
	PairAtDistance = place.PairAtDistance
	// MinPairwise returns the smallest pairwise robot distance.
	MinPairwise = place.MinPairwise
)

// Robot identifiers.
var (
	// AssignIDs draws k distinct IDs from the paper's [1, n^b] range.
	AssignIDs = gather.AssignIDs
	// MaxID is the top of the ID range for an n-node run.
	MaxID = gather.MaxID
)

// Schedule constants (exported for experiment scripting).
var (
	// R1 is the Phase 1 (map construction) budget of Theorem 8.
	R1 = gather.R1
	// R is the full Undispersed-Gathering budget R1 + 2n.
	R = gather.R
	// BitBudget is B(n), the shared ID bit budget.
	BitBudget = gather.BitBudget
)

// Parallel sweep engine.
var (
	// NewRunner returns a runner with the given worker count; 0 selects
	// GOMAXPROCS, 1 is the serial reference executor. Every worker owns a
	// pooled simulation Arena that it hands to each Job.Build.
	NewRunner = runner.New
	// JobSeed derives the deterministic seed of the i-th job of a batch,
	// for reproducing a single sweep point in isolation.
	JobSeed = runner.JobSeed
	// NewArena returns an empty pooled-simulation arena.
	NewArena = gather.NewArena
)

// Activation schedulers (Scenario.Sched / World.SetScheduler).
var (
	// NewFullSync returns the fully-synchronous scheduler: every robot
	// acts every round, exactly the model the paper proves its bounds in.
	NewFullSync = sim.NewFullSync
	// NewSemiSync returns a semi-synchronous scheduler that activates
	// each robot with probability p per round from a seeded stream.
	NewSemiSync = sim.NewSemiSync
	// NewAdversarial returns the fair adversarial scheduler (splits
	// co-located groups, holds back the laggard, lag bound maxLag).
	NewAdversarial = sim.NewAdversarial
	// ParseScheduler builds a scheduler from a -sched style spec
	// (full, semi:P, adv[:L]).
	ParseScheduler = sim.ParseScheduler
)

// Simulator and substrate access.
var (
	// NewWorld builds a simulator world from custom agents.
	NewWorld = sim.NewWorld
	// NewFinderAgent returns a map-building finder robot.
	NewFinderAgent = mapping.NewFinderAgent
	// NewTokenAgent returns its movable-token helper.
	NewTokenAgent = mapping.NewTokenAgent
	// MappingBudget is the O(n³) round budget of map construction.
	MappingBudget = mapping.Budget
	// IsomorphicFrom verifies port-respecting rooted isomorphism.
	IsomorphicFrom = graph.IsomorphicFrom
)
