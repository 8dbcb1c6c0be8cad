// Package errflow enforces the fail-stop error discipline on the durable
// paths. Three rules, each pinned to a postmortem the repo's design notes
// carry:
//
//  1. No discarded errors from durable-path write/append/fsync/dir-sync
//     calls. A dropped error from iofault.File.Sync or SystemLog.Append
//     is exactly the fsyncgate shape: the kernel reported data loss once,
//     the caller shrugged, and a later fsync "succeeded" over the hole.
//  2. Sentinel errors are matched with errors.Is, never == or a switch
//     case. The engine wraps every sentinel in context (fmt.Errorf
//     "...: %w"), so an == comparison that once worked silently stops
//     matching the day a wrap is added upstream.
//  3. In package wal, the error of a Sync on a struct-owned durable file
//     (a field of type iofault.File) must reach the poison transition on
//     every branch: a failed force of the system log is unrecoverable in
//     place, and any exit that does not poison leaves appenders writing
//     into a log whose stable prefix is unknown.
//
// Rules 1 and 3 are scoped to the durable packages (and testdata
// fixtures); rule 2 is tree-wide — a brittle comparison in a command or
// helper breaks just as surely.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/anz"
	"repro/internal/analysis/facts"
)

// Analyzer is the errflow pass.
var Analyzer = &anz.Analyzer{
	Name: "errflow",
	Doc:  "durable-path errors must be handled: no discards, errors.Is for sentinels, poison on failed log sync",
	Run:  run,
}

// durablePkgs mirror iopath's scope: the packages whose dropped errors
// cost durability.
var durablePkgs = []string{
	"internal/wal",
	"internal/ckpt",
	"internal/archive",
	"internal/recovery",
	"internal/shard",
	"internal/core",
	"internal/iofault",
}

func inScope(importPath string) bool {
	for _, p := range durablePkgs {
		if strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return strings.Contains(importPath, "/testdata/")
}

// sinkMethods maps a receiver type (package-suffix, type name) to the
// methods whose error results must not be discarded. The testdata entry
// lets fixtures declare stand-in types without importing the engine.
var sinkMethods = []struct {
	pkgSuffix, typeName string
	methods             map[string]bool
}{
	{"internal/iofault", "File", map[string]bool{
		"Write": true, "WriteAt": true, "Sync": true, "Truncate": true,
	}},
	{"internal/iofault", "FS", map[string]bool{
		"OpenFile": true, "ReadFile": true, "Rename": true, "SyncDir": true,
	}},
	{"internal/wal", "SystemLog", map[string]bool{
		"Append": true, "AppendAndFlush": true, "AppendAndFlushCtx": true,
		"Flush": true, "FlushCtx": true, "Reset": true,
	}},
}

func run(pass *anz.Pass) error {
	scoped := inScope(pass.Pkg.ImportPath)
	for _, file := range pass.Files {
		if scoped {
			checkDiscards(pass, file)
		}
		checkSentinels(pass, file)
	}
	if pass.Pkg.Types != nil &&
		(pass.Pkg.Types.Name() == "wal" || strings.Contains(pass.Pkg.ImportPath, "/testdata/")) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkPoison(pass, fd)
				}
			}
		}
	}
	return nil
}

// isSink reports whether call is a method call on one of the durable sink
// types (or a fixture stand-in), or the iofault.WriteFileSync helper.
func isSink(pass *anz.Pass, call *ast.CallExpr) bool {
	fn := facts.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	recv := facts.RecvNamed(fn)
	if recv == nil {
		return fn.Name() == "WriteFileSync" && fn.Pkg() != nil &&
			strings.HasSuffix(fn.Pkg().Path(), "internal/iofault")
	}
	for _, s := range sinkMethods {
		if !s.methods[fn.Name()] {
			continue
		}
		if facts.IsNamed(recv, s.pkgSuffix, s.typeName) {
			return true
		}
		if recv.Obj().Pkg() != nil && strings.Contains(recv.Obj().Pkg().Path(), "/testdata/") &&
			recv.Obj().Name() == s.typeName {
			return true
		}
	}
	return false
}

// checkDiscards reports durable sink calls whose error result is thrown
// away: bare expression statements, go/defer statements, and assignments
// with the blank identifier in the error slot.
func checkDiscards(pass *anz.Pass, file *ast.File) {
	report := func(call *ast.CallExpr) {
		pass.Reportf(call.Pos(), "error from %s is discarded on the durable path; a dropped write/sync error breaks fail-stop", calleeLabel(pass, call))
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isSink(pass, call) {
				report(call)
			}
		case *ast.GoStmt:
			if isSink(pass, s.Call) {
				report(s.Call)
			}
		case *ast.DeferStmt:
			if isSink(pass, s.Call) {
				report(s.Call)
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || !isSink(pass, call) {
				return true
			}
			// The error is the trailing result; a blank in its slot is a
			// discard whether or not the other results are kept.
			if len(s.Lhs) == 0 {
				return true
			}
			if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				report(call)
			}
		}
		return true
	})
}

// checkSentinels reports ==/!= and switch-case comparisons against the
// repo's sentinel error variables. Sentinels from other modules (io.EOF)
// are out of scope: the rule exists because this repo wraps its own.
func checkSentinels(pass *anz.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if v := sentinelVar(pass, n.X); v != nil {
				pass.Reportf(n.Pos(), "sentinel %s compared with %s; use errors.Is (the engine wraps its sentinels)", v.Name(), n.Op)
			} else if v := sentinelVar(pass, n.Y); v != nil {
				pass.Reportf(n.Pos(), "sentinel %s compared with %s; use errors.Is (the engine wraps its sentinels)", v.Name(), n.Op)
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if v := sentinelVar(pass, e); v != nil {
						pass.Reportf(e.Pos(), "sentinel %s matched by switch case; use errors.Is (the engine wraps its sentinels)", v.Name())
					}
				}
			}
		}
		return true
	})
}

// sentinelVar resolves e to a package-level error variable named Err*
// declared inside this module, or nil.
func sentinelVar(pass *anz.Pass, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !strings.HasPrefix(v.Pkg().Path(), "repro/") && !strings.Contains(v.Pkg().Path(), "/testdata/") {
		return nil
	}
	if !types.Implements(v.Type(), errorInterface()) {
		return nil
	}
	return v
}

var errIface *types.Interface

func errorInterface() *types.Interface {
	if errIface == nil {
		errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errIface
}

// checkPoison enforces rule 3 within one function: every Sync call on a
// struct field of type iofault.File must feed an if-guard that poisons.
func checkPoison(pass *anz.Pass, fd *ast.FuncDecl) {
	handled := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			// Shape: if err := x.f.Sync(); err != nil { ...poison... }
			if a, ok := s.Init.(*ast.AssignStmt); ok {
				if call := fieldSyncCall(pass, a); call != nil {
					handled[a] = true
					if !poisonsIn(s.Body) && !poisonsIn(s.Else) {
						pass.Reportf(call.Pos(), "failed Sync of the durable log file must reach the poison transition in this guard")
					}
				}
			}
		case *ast.AssignStmt:
			if handled[s] {
				return true
			}
			call := fieldSyncCall(pass, s)
			if call == nil {
				return true
			}
			// Shape: serr = x.f.Sync() ... later: if ...serr... { poison }
			name := ""
			if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
				name = id.Name
			}
			if name == "" || !poisonGuarded(fd.Body, name) {
				pass.Reportf(call.Pos(), "failed Sync of the durable log file never reaches the poison transition")
			}
		case *ast.ReturnStmt:
			// Shape: return x.f.Sync() — the error escapes unpoisoned.
			for _, r := range s.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isFieldSync(pass, call) {
					pass.Reportf(call.Pos(), "error of a durable-file Sync is returned without the poison transition")
				}
			}
		}
		return true
	})
}

// fieldSyncCall returns the durable-field Sync call assigned by a, if any.
func fieldSyncCall(pass *anz.Pass, a *ast.AssignStmt) *ast.CallExpr {
	if len(a.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok || !isFieldSync(pass, call) {
		return nil
	}
	return call
}

// isFieldSync recognizes x.f.Sync() where f is a struct field of type
// iofault.File (or a fixture stand-in named File): the long-lived durable
// handle, as opposed to a local temporary being built and certified. The
// indexed variant x.files[i].Sync() — a field of slice or array of File —
// is the same obligation: each element is a long-lived durable handle,
// and a failed force of any one of them must fail-stop its owner.
func isFieldSync(pass *anz.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	x := ast.Unparen(sel.X)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	recv, ok := x.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fieldObj, ok := pass.TypesInfo.Uses[recv.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() {
		return false
	}
	t := fieldObj.Type()
	switch u := t.Underlying().(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Array:
		t = u.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil {
		return false
	}
	if facts.IsNamed(named, "internal/iofault", "File") {
		return true
	}
	return named.Obj().Pkg() != nil &&
		strings.Contains(named.Obj().Pkg().Path(), "/testdata/") &&
		named.Obj().Name() == "File"
}

// poisonGuarded reports whether body contains an if statement whose
// condition mentions name and whose branches reach a poison call.
func poisonGuarded(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		if !mentions(ifs.Cond, name) {
			return true
		}
		if poisonsIn(ifs.Body) || poisonsIn(ifs.Else) {
			found = true
		}
		return !found
	})
	return found
}

// poisonsIn reports whether n contains a call whose callee name contains
// "poison" (poisonLocked, poison, Poison...).
func poisonsIn(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if strings.Contains(strings.ToLower(calleeName(call)), "poison") {
				found = true
			}
		}
		return !found
	})
	return found
}

// mentions reports whether name occurs as an identifier inside e.
func mentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// calleeName extracts the bare called name of a call expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleeLabel renders the sink for a diagnostic ("SystemLog.Append").
func calleeLabel(pass *anz.Pass, call *ast.CallExpr) string {
	fn := facts.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return calleeName(call)
	}
	if recv := facts.RecvNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
