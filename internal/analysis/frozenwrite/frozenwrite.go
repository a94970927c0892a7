// Package frozenwrite machine-checks the "deeply immutable after
// Freeze()" rule of the CSR graph core (PR 3): outside the blessed
// construction sites, nothing may store into a graph.Graph's CSR arrays —
// not the `halves` / `offsets` fields directly, not elements reached
// through them, not slices returned by the in-package `ports` accessor,
// and not via append. Shared-graph sweeps hand one *Graph to every worker
// precisely because no code path can mutate it; a single raced write
// would poison every job's results at once.
//
// Construction sites are allowlisted two ways: by function name (freeze
// and WithPermutedPorts build the arrays of a Graph that is not yet
// published) and by file basename (builder.go and assembler.go hold the
// two-phase construction path; csr.go holds the direct-to-CSR assembly
// path). A write anywhere else needs a justified
// //repolint:mutable annotation — which should essentially never happen;
// restructure into the builder instead.
//
// The fault-injection layer adds one sanctioned mutable structure on top
// of the frozen CSR: graph.Overlay's per-half-edge closed mask. Its
// legality rule is the churn adversary's apply step and nothing else —
// the mask may be stored to only inside the overlay's own lifecycle
// (NewOverlay, Reset, churnRound, all in overlay.go). Any other write
// would let simulation code edit the adversary's coin flips mid-run,
// breaking both determinism and the pooled-overlay replay contract, so it
// is flagged exactly like a frozen-CSR write.
package frozenwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the frozenwrite check.
var Analyzer = &analysis.Analyzer{
	Name: "frozenwrite",
	Doc:  "flag writes to a frozen graph.Graph's CSR storage outside builder/freeze code",
	Run:  run,
}

// csrFields are the frozen storage fields of graph.Graph.
var csrFields = map[string]bool{"halves": true, "offsets": true}

// allowedFuncs build the CSR arrays of Graphs that are still private to
// the constructor and therefore legitimately store into them.
var allowedFuncs = map[string]bool{"freeze": true, "WithPermutedPorts": true}

// allowedFiles hold the two-phase Builder → Freeze construction path and
// the direct-to-CSR assembly path (csr.go), whose Freeze hands the
// builder's arrays to a Graph that is not yet published.
var allowedFiles = map[string]bool{"builder.go": true, "assembler.go": true, "csr.go": true}

// maskFields are graph.Overlay's churn-mask storage.
var maskFields = map[string]bool{"closed": true}

// maskAllowedFuncs are the overlay's own lifecycle sites — the only code
// that may flip the closed mask. Matched by name AND file (overlay.go),
// so an unrelated Reset elsewhere in the package gets no license.
var maskAllowedFuncs = map[string]bool{"NewOverlay": true, "Reset": true, "churnRound": true}

func run(pass *analysis.Pass) error {
	ann := pass.Annotations()
	inGraph := strings.HasSuffix(pass.Pkg.Path(), "internal/graph")
	for _, f := range pass.Files {
		file := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if allowedFiles[file] && inGraph {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if allowedFuncs[fn.Name.Name] && inGraph {
				continue
			}
			allowMask := inGraph && file == "overlay.go" && maskAllowedFuncs[fn.Name.Name]
			checkFunc(pass, ann, fn, allowMask)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl, allowMask bool) {
	report := func(pos token.Pos, format string, args ...any) {
		switch a := ann.At(pass.Fset, pos, analysis.AnnotMutable); {
		case a == nil:
			pass.Reportf(pos, format, args...)
		case a.Justification == "":
			pass.Reportf(pos, "//repolint:mutable annotation needs a justification explaining why this Graph is not yet frozen")
		}
	}
	// checkWrite flags expr as an illegal store target: frozen CSR
	// storage always, the overlay's churn mask unless this function is a
	// sanctioned overlay lifecycle site.
	checkWrite := func(pos token.Pos, expr ast.Expr, verb string) {
		if name := csrTarget(pass, expr); name != "" {
			report(pos,
				"%s to frozen CSR storage %s of graph.Graph in %s: graphs are deeply immutable after Freeze; build through graph.Builder",
				verb, name, fn.Name.Name)
			return
		}
		if allowMask {
			return
		}
		if name := maskTarget(pass, expr); name != "" {
			report(pos,
				"%s to churn mask %s of graph.Overlay in %s: the closed mask may change only inside the overlay's own lifecycle (NewOverlay, Reset, churnRound)",
				verb, name, fn.Name.Name)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs.Pos(), lhs, "write")
			}
		case *ast.IncDecStmt:
			checkWrite(n.X.Pos(), n.X, "write")
		case *ast.CallExpr:
			// append(g.halves, ...) returns a slice that may alias the
			// frozen array; growing CSR storage is construction-only.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				checkWrite(n.Args[0].Pos(), n.Args[0], "append")
			}
		}
		return true
	})
}

// csrTarget reports whether expr is (or indexes/slices into) one of
// graph.Graph's CSR storage fields, or a slice returned by the ports
// accessor; it returns the offending field or accessor name, or "".
func csrTarget(pass *analysis.Pass, expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.CallExpr:
			// g.ports(u)[i] = ... stores through the accessor's alias of
			// the CSR array.
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "ports" && isGraphExpr(pass, sel.X) {
				return "ports()"
			}
			return ""
		case *ast.SelectorExpr:
			if !csrFields[e.Sel.Name] {
				return ""
			}
			if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && fromGraphPackage(v) && isGraphExpr(pass, e.X) {
					return e.Sel.Name
				}
			}
			return ""
		default:
			return ""
		}
	}
}

// maskTarget reports whether expr is (or indexes/slices into) the churn
// mask of graph.Overlay; it returns the offending field name, or "".
func maskTarget(pass *analysis.Pass, expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if !maskFields[e.Sel.Name] {
				return ""
			}
			if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && fromGraphPackage(v) && isOverlayExpr(pass, e.X) {
					return e.Sel.Name
				}
			}
			return ""
		default:
			return ""
		}
	}
}

// isGraphExpr reports whether expr's type is graph.Graph or *graph.Graph.
func isGraphExpr(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Graph" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/graph")
}

// isOverlayExpr reports whether expr's type is graph.Overlay or
// *graph.Overlay.
func isOverlayExpr(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Overlay" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/graph")
}

// fromGraphPackage reports whether the field object is declared in the
// graph package (real tree or a testdata stub sharing the path suffix).
func fromGraphPackage(v *types.Var) bool {
	return v.Pkg() != nil && strings.HasSuffix(v.Pkg().Path(), "internal/graph")
}
