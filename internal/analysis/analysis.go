// Package analysis is the foundation of repolint, the repo's custom
// static-analysis suite: a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) built directly on the standard library's go/ast and
// go/types. The repo deliberately vendors no third-party modules, so the
// usual analysis framework is out of reach; the subset here is exactly
// what the four contract checkers need — typed ASTs per package, a
// reporting channel, and the //repolint: annotation grammar.
//
// The contracts being enforced are the repo's determinism invariants
// (see ROADMAP.md and DESIGN.md §"Statically enforced contracts"):
//
//   - nomapiter: no map-iteration-order leaks in deterministic packages;
//   - detsource: no wall-clock or math/rand entropy in deterministic
//     packages;
//   - frozenwrite: no writes to a frozen graph.Graph's CSR arrays
//     outside the blessed construction sites;
//   - resetcomplete: every Reset method accounts for every struct field,
//     so pooled reuse stays bit-transparent.
//
// Violations that used to surface as golden-hash mismatches one sweep
// later are build failures under `go run ./cmd/repolint ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static check. Run inspects a single package
// through the Pass and reports findings via Pass.Report; it returns an
// error only for framework-level failures (a nil type, a missing map),
// never for findings.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "nomapiter"
	Doc  string // one-paragraph description of the contract enforced
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // package syntax, comments included
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The loader and the analysistest
	// harness install their own sinks.
	Report func(Diagnostic)

	annots *Annotations // lazily collected //repolint: annotations
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotations returns the package's //repolint: annotations, collected on
// first use.
func (p *Pass) Annotations() *Annotations {
	if p.annots == nil {
		p.annots = CollectAnnotations(p.Fset, p.Files)
	}
	return p.annots
}

// DeterministicPackages lists the packages whose code must be bit-stable
// under re-execution: everything on the seeded scenario → world → rounds
// → verdict path. nomapiter and detsource enforce their contracts only
// here; packages that merely *measure* (internal/runner, internal/prof)
// or present (cmd/*) are deliberately outside the set — their wall-clock
// reads are the allowlist detsource encodes, and
// internal/runner's TestJobResultDeterminismBoundary pins that those
// reads never feed anything the determinism gates hash or diff.
var DeterministicPackages = []string{
	"repro/internal/sim",
	"repro/internal/gather",
	"repro/internal/graph",
	"repro/internal/uxs",
	"repro/internal/expt",
	"repro/internal/place",
	// The sweep service's request→response path must be a pure function
	// of the request for the content-addressed result cache to be sound;
	// its only sanctioned wall-clock reads are the annotated metrics
	// probes in serve/clock.go (the server's timeouts live in cmd/sweepd,
	// outside the set).
	"repro/internal/serve",
	// The fault layer IS the adversary: its crash/recovery/Byzantine
	// schedules and corruption payloads are pinned by FNV-64 goldens, so
	// any entropy here would shift every faulted golden at once.
	"repro/internal/sim/fault",
	// The worst-case hunter must be a pure function of its Config — a
	// hunted seed is only evidence if the hunt that found it replays.
	"repro/internal/hunt",
}

// IsDeterministic reports whether the import path is inside the
// deterministic set.
func IsDeterministic(path string) bool {
	for _, p := range DeterministicPackages {
		if path == p {
			return true
		}
	}
	return false
}
