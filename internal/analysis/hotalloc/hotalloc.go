// Package hotalloc flags heap allocations inside the suite's hot
// paths.
//
// The Go analogue of the paper's central serial result (managed-runtime
// overhead versus Fortran) is allocation pressure in the kernels: a
// make, a growing append, or a boxed interface argument inside a
// parallel region body runs once per worker per iteration, and the
// garbage it produces is exactly the GC pressure the paper measured in
// Java. ROADMAP item 4 wants a "zero-allocation steady state ...
// audited by a new npblint analyzer" — this is that analyzer, the
// static half of the allocation discipline whose dynamic half is
// internal/allocgate.
//
// Three region shapes are considered hot:
//
//  1. Function literals passed to team.Team region starters (Run,
//     RunCtx, For, ForBlock, ReduceSum) — the body every worker
//     executes. Pipeline steps are covered transitively: Wait/Post
//     brackets only occur inside such bodies.
//  2. Statements bracketed by timer.Set Start("name")/Stop("name") or
//     kernel.Phases Begin("name")/End("name") calls with literal names
//     in the same block — the benchmarks' timed phases. Toggles
//     wrapped in a nil guard (`if timers != nil { ... }`) count too;
//     closes deferred with `defer` do not close the phase (they run at
//     function exit). Non-literal names (per-worker timer.Worker names,
//     pass-through helpers) are ignored, mirroring the timerpair and
//     tracepair analyzers.
//  3. Code annotated `//npblint:hot` — on the line above (or the doc
//     comment of) a function declaration, the whole body; on the line
//     above or trailing a statement, that statement. An annotated
//     assignment whose right-hand sides are all function literals is
//     the hoisted-body idiom — the closure is constructed once at
//     setup and reused every iteration — so the literal itself is not
//     reported, but its interior is audited as hot code. This is how
//     region bodies stay audited after they move out of the lexical
//     region call.
//
// Inside a hot region the analyzer reports make, new, append (growth
// cannot be ruled out statically), slice/map composite literals,
// &composite allocations, function literals (each is a fresh closure
// allocation; region bodies escape to the worker channels by
// construction), and arguments boxed into interface parameters or
// conversions. Setup code that legitimately allocates inside a hot
// shape is silenced with `//npblint:ignore hotalloc <reason>`. Test
// files are skipped wholesale: tests allocate deliberately, and the
// discipline this analyzer enforces is a property of the production
// kernels.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"npbgo/internal/analysis"
)

const (
	teamPath   = "npbgo/internal/team"
	timerPath  = "npbgo/internal/timer"
	kernelPath = "npbgo/internal/kernel"

	// hotMarker annotates a declaration or statement as hot-path code.
	hotMarker = "//npblint:hot"
)

// regionStarters are the Team methods whose func-literal argument is a
// parallel region body.
var regionStarters = map[string]bool{
	"Run":       true,
	"RunCtx":    true,
	"For":       true,
	"ForBlock":  true,
	"ReduceSum": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag heap allocations (make/new/append/composites/closures/interface boxing) " +
		"inside parallel region bodies, timed phases, and //npblint:hot code",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		hotLines := markerLines(pass.Fset, file)
		w := &walker{pass: pass, hotLines: hotLines, reported: make(map[token.Pos]bool)}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hot := w.annotated(fn.Pos()) || docAnnotated(fn.Doc)
			w.scanFunc(fn.Body, hot, "//npblint:hot function")
		}
	}
	return nil
}

// markerLines collects the lines carrying a //npblint:hot comment.
func markerLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if isHotComment(c.Text) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func isHotComment(text string) bool {
	if !strings.HasPrefix(text, hotMarker) {
		return false
	}
	rest := text[len(hotMarker):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

func docAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isHotComment(c.Text) {
			return true
		}
	}
	return false
}

type walker struct {
	pass     *analysis.Pass
	hotLines map[int]bool
	reported map[token.Pos]bool
}

// annotated reports whether pos sits on or directly below a
// //npblint:hot line.
func (w *walker) annotated(pos token.Pos) bool {
	line := w.pass.Fset.Position(pos).Line
	return w.hotLines[line] || w.hotLines[line-1]
}

// scanFunc walks one function (or closure) body. hot marks the whole
// body as a hot region (with `why` naming the reason); otherwise hot
// sub-regions — region-starter literals, timed phases, annotated
// statements — are discovered statement by statement.
func (w *walker) scanFunc(body *ast.BlockStmt, hot bool, why string) {
	if hot {
		w.reportAllocs(body, why)
	}
	w.scanBlock(body, hot, why)
}

// scanBlock tracks the open timed phases through one statement list
// and recurses into nested blocks and function literals.
func (w *walker) scanBlock(block *ast.BlockStmt, hot bool, why string) {
	open := map[string]bool{}
	for _, stmt := range block.List {
		starts, stops := phaseToggles(w.pass, stmt)
		for _, name := range stops {
			delete(open, name)
		}
		stmtHot, stmtWhy := hot, why
		if !stmtHot && len(open) > 0 {
			stmtHot, stmtWhy = true, fmt.Sprintf("timed phase %q", anyKey(open))
		}
		if !stmtHot && w.annotated(stmt.Pos()) {
			if lits := hoistedBodyLits(stmt); len(lits) > 0 {
				// The hoisted-body idiom: the annotated assignment
				// constructs the closure once at setup; the hot code is
				// its interior.
				for _, lit := range lits {
					w.reportAllocs(lit.Body, "//npblint:hot hoisted body")
					w.scanBlock(lit.Body, true, "//npblint:hot hoisted body")
				}
				for _, name := range starts {
					open[name] = true
				}
				continue
			}
			stmtHot, stmtWhy = true, "//npblint:hot statement"
		}
		if stmtHot && !hot {
			w.reportAllocs(stmt, stmtWhy)
		}
		w.descend(stmt, stmtHot, stmtWhy)
		for _, name := range starts {
			open[name] = true
		}
	}
}

// hoistedBodyLits returns the function literals of an assignment whose
// right-hand sides are all function literals — the hoisted region-body
// idiom — and nil for every other statement shape.
func hoistedBodyLits(stmt ast.Stmt) []*ast.FuncLit {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) == 0 {
		return nil
	}
	lits := make([]*ast.FuncLit, 0, len(as.Rhs))
	for _, rhs := range as.Rhs {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			return nil
		}
		lits = append(lits, lit)
	}
	return lits
}

func anyKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

// descend recurses into the blocks and function literals of one
// statement so nested statement lists get their own phase tracking and
// region-starter literals are discovered at any depth.
func (w *walker) descend(stmt ast.Stmt, hot bool, why string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			w.scanBlock(v, hot, why)
			return false
		case *ast.CallExpr:
			if body, ok := regionBody(w.pass, v); ok {
				w.reportAllocs(body.Body, "parallel region body")
				// The body itself was handled; keep inspecting the
				// other arguments through the default path below.
				for _, arg := range v.Args {
					if arg != ast.Expr(body) {
						ast.Inspect(arg, func(m ast.Node) bool {
							if b, ok := m.(*ast.BlockStmt); ok {
								w.scanBlock(b, hot, why)
								return false
							}
							return true
						})
					}
				}
				w.scanBlock(body.Body, hot, why)
				return false
			}
		case *ast.FuncLit:
			w.scanBlock(v.Body, hot, why)
			return false
		}
		return true
	})
}

// regionBody returns the func-literal region body of a team
// region-starter call, if call is one.
func regionBody(pass *analysis.Pass, call *ast.CallExpr) (*ast.FuncLit, bool) {
	recv, method, isMeth := analysis.Receiver(pass.TypesInfo, call)
	if !isMeth || !analysis.IsNamed(recv, teamPath, "Team") || !regionStarters[method] {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit, ok
}

// phaseToggles returns the literal timer.Set and kernel.Phases phase
// names started and stopped by stmt, looking through nil guards but
// not into function literals (their Start/Stop runs on another
// goroutine's schedule) or defers (a deferred Stop closes the phase at
// function exit, not here).
func phaseToggles(pass *analysis.Pass, stmt ast.Stmt) (starts, stops []string) {
	if _, ok := stmt.(*ast.DeferStmt); ok {
		return nil, nil
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			recv, method, isMeth := analysis.Declarer(pass.TypesInfo, v)
			if !isMeth || len(v.Args) == 0 {
				return true
			}
			timer := analysis.IsNamed(recv, timerPath, "Set")
			bracket := analysis.IsNamed(recv, kernelPath, "Phases")
			name, ok := analysis.StringLit(v.Args[0])
			if !ok || !timer && !bracket {
				return true
			}
			switch {
			case timer && method == "Start", bracket && method == "Begin":
				starts = append(starts, name)
			case timer && method == "Stop", bracket && method == "End":
				stops = append(stops, name)
			}
		}
		return true
	})
	return starts, stops
}

// reportAllocs reports every allocation site under root. Function
// literals that are themselves region bodies are reported as closure
// allocations (constructing one per iteration is the canonical hot
// leak) but their contents are reported with the more precise
// "parallel region body" reason by the caller's walk.
func (w *walker) reportAllocs(root ast.Node, why string) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			w.checkCall(v, why)
		case *ast.CompositeLit:
			w.checkComposite(v, why)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := v.X.(*ast.CompositeLit); ok {
					w.report(v.Pos(), fmt.Sprintf("&composite literal allocates in %s", why))
				}
			}
		case *ast.FuncLit:
			w.report(v.Pos(), fmt.Sprintf("function literal allocates a closure per execution of %s; hoist it and reuse", why))
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, why string) {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	switch {
	case tv.IsBuiltin():
		name := builtinName(call.Fun)
		switch name {
		case "make":
			w.report(call.Pos(), fmt.Sprintf("make allocates in %s; preallocate in setup and reuse", why))
		case "new":
			w.report(call.Pos(), fmt.Sprintf("new allocates in %s; preallocate in setup and reuse", why))
		case "append":
			w.report(call.Pos(), fmt.Sprintf("append may grow its backing array in %s; size the buffer in setup", why))
		}
	case tv.IsType():
		// Conversion: T(x) boxes when T is an interface and x is not.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(w.pass, call.Args[0]) {
			w.report(call.Pos(), fmt.Sprintf("conversion boxes its operand into an interface in %s", why))
		}
	default:
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		w.checkBoxing(call, sig, why)
	}
}

// checkBoxing reports call arguments boxed into interface parameters —
// the fmt.Sprintf("%d", i) in a hot loop.
func (w *walker) checkBoxing(call *ast.CallExpr, sig *types.Signature, why string) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing here
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(w.pass, arg) {
			w.report(arg.Pos(), fmt.Sprintf("argument is boxed into an interface parameter in %s", why))
		}
	}
}

// boxes reports whether passing arg to an interface allocates: its type
// is concrete, not already an interface, not untyped nil, and not a
// pointer (pointers fit the interface word).
func boxes(pass *analysis.Pass, arg ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		// One-word reference types: stored directly, no box.
		return false
	}
	return true
}

func builtinName(fun ast.Expr) string {
	switch v := fun.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.ParenExpr:
		return builtinName(v.X)
	}
	return ""
}

// checkComposite reports slice and map composite literals; struct and
// array values are stack values unless they escape, which the escape
// report (cmd/npbescape) tracks with compiler precision.
func (w *walker) checkComposite(lit *ast.CompositeLit, why string) {
	tv, ok := w.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.report(lit.Pos(), fmt.Sprintf("slice literal allocates in %s; preallocate in setup and reuse", why))
	case *types.Map:
		w.report(lit.Pos(), fmt.Sprintf("map literal allocates in %s; preallocate in setup and reuse", why))
	}
}

func (w *walker) report(pos token.Pos, msg string) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}
