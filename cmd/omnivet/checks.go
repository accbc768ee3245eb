package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// finding is one reported violation.
type finding struct {
	pos token.Pos
	msg string
}

// stringMatchFuncs are the strings-package predicates that, applied
// to error text, amount to matching errors by presentation.
var stringMatchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Index": true, "LastIndex": true,
}

// checkFile runs the check over one typechecked file.
func checkFile(f *ast.File, info *types.Info) []finding {
	var findings []finding
	ast.Inspect(f, func(n ast.Node) bool {
		var fd *finding
		switch n := n.(type) {
		case *ast.CallExpr:
			fd = checkErrorStringMatch(n, info)
		case *ast.BinaryExpr:
			fd = checkErrorStringCompare(n, info)
		}
		if fd != nil {
			findings = append(findings, *fd)
		}
		return true
	})
	return findings
}

// isErrorText reports whether e is a call of the error interface's
// Error method — the rendered text of an error value.
func isErrorText(e ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return types.AssignableTo(tv.Type, types.Universe.Lookup("error").Type())
}

const sentinelHint = "string-matching on error text; use errors.Is with the typed sentinels (core.ErrBudget, core.ErrInterrupted, ...)"

// checkErrorStringMatch flags strings.Contains(err.Error(), ...) and
// friends.
func checkErrorStringMatch(call *ast.CallExpr, info *types.Info) *finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !stringMatchFuncs[sel.Sel.Name] {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "strings" {
		return nil
	}
	for _, arg := range call.Args {
		if isErrorText(arg, info) {
			return &finding{pos: call.Pos(), msg: sentinelHint}
		}
	}
	return nil
}

// checkErrorStringCompare flags err.Error() == "..." (and !=).
func checkErrorStringCompare(b *ast.BinaryExpr, info *types.Info) *finding {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return nil
	}
	if isErrorText(b.X, info) || isErrorText(b.Y, info) {
		return &finding{pos: b.Pos(), msg: sentinelHint}
	}
	return nil
}
