// Package tracepair flags phase-span opens with no matching close in
// the same function: trace.Tracer.BeginPhase without EndPhase, and the
// benchmark-side bracket kernel.Phases.Begin (usually reached through a
// benchmark that embeds kernel.Phases) without End.
//
// Phase spans are the master track's named brackets in the exported
// Perfetto timeline; trace.Validate rejects a file whose spans do not
// pair and nest, so a BeginPhase whose EndPhase was lost to a refactor
// turns every trace the benchmark emits into an unloadable file — at
// sweep time, long after the edit. For each function, every open with
// a literal name must be paired with at least one close (or deferred
// close, which covers all return paths) with the same literal in the
// same function. Opens with non-literal names are ignored: helpers that
// take the phase name as a parameter — kernel.Phases itself — own the
// pairing internally and cannot be checked syntactically.
package tracepair

import (
	"go/ast"

	"npbgo/internal/analysis"
)

// pairs maps each checked open method to its close, per declaring type.
var pairs = []struct {
	pkgPath, typ, open, close string
}{
	{"npbgo/internal/trace", "Tracer", "BeginPhase", "EndPhase"},
	{"npbgo/internal/kernel", "Phases", "Begin", "End"},
}

var Analyzer = &analysis.Analyzer{
	Name: "tracepair",
	Doc:  "flag trace.Tracer BeginPhase and kernel.Phases Begin calls with no matching close for the same phase name in the same function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	// span is one phase of one pair kind (tracer or bracket).
	type span struct {
		pair int
		name string
	}
	type openSite struct {
		pos ast.Node
		span
	}
	var opens []openSite
	closed := make(map[span]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || len(call.Args) == 0 {
			return true
		}
		recv, method, isMeth := analysis.Declarer(pass.TypesInfo, call)
		if !isMeth {
			return true
		}
		name, isLit := analysis.StringLit(call.Args[0])
		if !isLit {
			return true
		}
		for i, p := range pairs {
			if !analysis.IsNamed(recv, p.pkgPath, p.typ) {
				continue
			}
			switch method {
			case p.open:
				opens = append(opens, openSite{call, span{i, name}})
			case p.close:
				closed[span{i, name}] = true
			}
		}
		return true
	})
	for _, o := range opens {
		if !closed[o.span] {
			p := pairs[o.pair]
			pass.Reportf(o.pos.Pos(),
				"%s.%s(%q) has no matching %s in %s; the exported timeline fails validation with an unclosed span",
				p.typ, p.open, o.name, p.close, fn.Name.Name)
		}
	}
}
