package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// withStack walks every node of every file, calling fn with the node and
// the stack of its ancestors (outermost first, not including the node
// itself). Returning false skips the node's children.
func withStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				// Post-order callback: only reached for nodes whose
				// children were visited, i.e. nodes we pushed.
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// pathString flattens a pure identifier/selector chain ("opt.Probe",
// "g.probe", "probe") into a dotted string, or "" when the expression
// contains anything else (calls, indexing, parens with side effects).
// Used to compare "the same lvalue" across guard and use sites; the
// comparison is syntactic, which is sound here because the guarded
// values (probe fields, options variables) are never reassigned between
// guard and use in this codebase's idiom.
func pathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return pathString(e.X)
	case *ast.SelectorExpr:
		base := pathString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// enclosingFuncs returns the innermost enclosing function node (FuncDecl
// or FuncLit) from a withStack stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// boolAssigns collects, for every boolean variable with exactly one
// assignment inside fn, the assigned expression. Variables assigned more
// than once are dropped: a later assignment could invalidate a guard
// derived from the first.
func boolAssigns(info *types.Info, fn ast.Node) map[types.Object]ast.Expr {
	single := make(map[types.Object]ast.Expr)
	dead := make(map[types.Object]bool)
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || dead[obj] {
			return
		}
		if _, seen := single[obj]; seen {
			delete(single, obj)
			dead[obj] = true
			return
		}
		single[obj] = rhs
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	return single
}

// nilCheck classifies cond as a nil comparison of a pure selector path:
// it returns the compared path and true for "path != nil" (eq=false) or
// "path == nil" (eq=true).
func nilCheck(cond ast.Expr) (path string, eq, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", false, false
	}
	x, y := be.X, be.Y
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return "", false, false
	}
	p := pathString(x)
	if p == "" {
		return "", false, false
	}
	return p, be.Op == token.EQL, true
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// condImpliesNonNil reports whether cond being true implies path != nil.
// It understands direct comparisons, conjunctions (any conjunct
// suffices), and single-assignment boolean variables whose initializer
// implies the check (the "sampling := probe != nil && period > 0" idiom).
func condImpliesNonNil(cond ast.Expr, path string, assigns map[types.Object]ast.Expr, info *types.Info, depth int) bool {
	if depth > 4 {
		return false
	}
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesNonNil(c.X, path, assigns, info, depth)
	case *ast.BinaryExpr:
		if p, eq, ok := nilCheck(c); ok {
			return !eq && p == path
		}
		if c.Op == token.LAND {
			return condImpliesNonNil(c.X, path, assigns, info, depth+1) ||
				condImpliesNonNil(c.Y, path, assigns, info, depth+1)
		}
	case *ast.Ident:
		obj := info.Uses[c]
		if obj == nil {
			return false
		}
		if rhs, ok := assigns[obj]; ok {
			return condImpliesNonNil(rhs, path, assigns, info, depth+1)
		}
	}
	return false
}

// condImpliesNil reports whether cond being true implies path == nil —
// the early-return guard shape "if p == nil { return }" possibly widened
// with disjuncts ("if p == nil || n == 0 { return }": when the branch is
// NOT taken, every disjunct is false, so p != nil afterwards).
func condImpliesNil(cond ast.Expr, path string, depth int) bool {
	if depth > 4 {
		return false
	}
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesNil(c.X, path, depth)
	case *ast.BinaryExpr:
		if p, eq, ok := nilCheck(c); ok {
			return eq && p == path
		}
		if c.Op == token.LOR {
			return condImpliesNil(c.X, path, depth+1) ||
				condImpliesNil(c.Y, path, depth+1)
		}
	}
	return false
}

// terminatesFlow reports whether the block's final statement leaves the
// enclosing scope: return, panic, os.Exit-like calls, or loop branches.
func terminatesFlow(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// guardedNonNil reports whether the node at the top of stack is
// protected by a nil guard on path: either an enclosing if whose
// condition implies path != nil, or an earlier early-return
// "if path == nil { return }" in an enclosing block. The search crosses
// FuncLit boundaries upward — a guard outside a closure protects the
// closure body because the guarded values are never reassigned in the
// guarded idiom.
func guardedNonNil(stack []ast.Node, nodePos token.Pos, path string, assigns map[types.Object]ast.Expr, info *types.Info) bool {
	child := ast.Node(nil)
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// Guarded when we sit inside the THEN branch of a non-nil
			// check (not in the condition or the else branch).
			if child != nil && child == ast.Node(n.Body) &&
				condImpliesNonNil(n.Cond, path, assigns, info, 0) {
				return true
			}
		case *ast.BlockStmt:
			// An earlier sibling "if path == nil { return }" dominates
			// everything after it in the same block.
			for _, s := range n.List {
				if s.End() >= nodePos {
					break
				}
				ifs, ok := s.(*ast.IfStmt)
				if !ok || ifs.Init != nil {
					continue
				}
				if condImpliesNil(ifs.Cond, path, 0) && terminatesFlow(ifs.Body) {
					return true
				}
			}
		}
		child = stack[i]
	}
	return false
}
