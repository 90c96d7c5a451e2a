// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named
// check with a Run function, a Pass hands it one type-checked package,
// and diagnostics are reported through the Pass.
//
// The suite cannot depend on x/tools (the module is deliberately
// stdlib-only), so this package mirrors the x/tools API shape closely
// enough that the npblint analyzers could be ported to the real
// framework by changing imports. The driver side — loading packages via
// `go list -export`, the `go vet -vettool` unit protocol, and
// //npblint:ignore suppressions — lives in the sibling driver package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //npblint:ignore comments. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description printed by `npblint help`.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills in the
	// analyzer name and applies suppression comments.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within Pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Receiver returns the named type of the receiver if call is a method
// call expression x.M(...) on a (possibly pointer-to) named type, along
// with the method name. ok is false for plain function calls, interface
// methods and method values.
func Receiver(info *types.Info, call *ast.CallExpr) (recv *types.Named, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMeth := info.Selections[sel]
	if !isMeth || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	t := selection.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	return named, sel.Sel.Name, true
}

// Declarer is Receiver for the type that declares the called method:
// for a method promoted through an embedded field it returns the
// embedded type (kernel.Phases for a benchmark's b.Begin), not the
// receiver expression's type.
func Declarer(info *types.Info, call *ast.CallExpr) (recv *types.Named, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMeth := info.Selections[sel]
	if !isMeth || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	r := selection.Obj().(*types.Func).Type().(*types.Signature).Recv()
	if r == nil {
		return nil, "", false
	}
	t := r.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	return named, sel.Sel.Name, isNamed
}

// IsNamed reports whether named is the type pkgPath.name.
func IsNamed(named *types.Named, pkgPath, name string) bool {
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// PkgFunc returns the package path and name of the package-level
// function called by call (fault.Maybe, team.Block, ...). ok is false
// for method calls, builtins, conversions and locals.
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[id].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// StringLit returns the constant value of a string literal expression
// (after unquoting). ok is false for anything but a direct literal —
// named constants deliberately don't count, so checks that require an
// auditable in-place literal can enforce that.
func StringLit(e ast.Expr) (string, bool) {
	lit, isLit := ast.Unparen(e).(*ast.BasicLit)
	if !isLit || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
