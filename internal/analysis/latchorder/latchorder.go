// Package latchorder statically enforces the latch discipline documented
// in DESIGN.md:
//
//  1. Ordering. The three paper latches form a partial acquisition order
//     — protection latch → codeword latch → system-log latch — and no
//     code path may acquire a latch while holding one of an equal-or-
//     later class. The check is interprocedural: every function exports
//     a summary of the latch classes it (transitively) acquires, and a
//     call made while a latch is held is checked against the callee's
//     summary, so an inversion split across two functions (or hidden in
//     a worker-pool closure) is still reported.
//
//  2. Balance. A Lock/RLock on a latch.Latch, sync.Mutex or
//     sync.RWMutex — or a latch.Striped.AcquireRange guard — must be
//     released on every return path, either inline before each return
//     or by an immediate defer. Guards that escape (stored into a
//     token, returned to the caller) transfer ownership and are exempt;
//     brackets that intentionally return holding a latch carry a
//     //dbvet:allow latchorder directive naming the releasing function.
//
// Latches are classified by //dbvet:latch annotations on their field
// declarations (see internal/region's cwLatch, internal/wal's system
// log latch, the protect schemes' prot stripes), with a name-based
// fallback ("prot…" → protection, "cw…" → codeword, "…log…" → syslog)
// so unannotated code and test fixtures still classify.
//
// The analysis is deliberately conservative where static knowledge runs
// out: acquisitions inside a conditional branch or loop body are checked
// within that scope but not propagated past it, and interface method
// calls (whose implementations are unknown) contribute no summary.
package latchorder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/anz"
)

// Analyzer is the latchorder pass.
var Analyzer = &anz.Analyzer{
	Name: "latchorder",
	Doc:  "check latch acquisition order (protection → codeword → syslog) and unlock-on-all-paths",
	Run:  run,
}

// fnFact is the exported per-function summary: the latch classes the
// function transitively acquires, and — for latch accessors — the class
// of the latch it returns.
type fnFact struct {
	Acquires     map[string]bool
	ReturnsLatch string
}

// fnInfo is the package-local pre-fixpoint summary.
type fnInfo struct {
	acquires map[string]bool
	callees  []*types.Func
}

type checker struct {
	pass       *anz.Pass
	fieldClass map[types.Object]string
	aliasClass map[types.Object]string
	// trans holds the package-local transitive acquire sets after the
	// call-graph fixpoint.
	trans map[*types.Func]map[string]bool
	// offenses dedups balance diagnostics per acquisition site.
	offenses map[token.Pos]string
}

func run(pass *anz.Pass) error {
	c := &checker{
		pass:       pass,
		fieldClass: anz.LatchClasses(pass),
		aliasClass: make(map[types.Object]string),
		trans:      make(map[*types.Func]map[string]bool),
		offenses:   make(map[token.Pos]string),
	}

	// Phase A: per-function direct summaries, then a fixpoint over the
	// package-local call graph, then fact export for importers.
	infos := make(map[*types.Func]*fnInfo)
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			infos[obj] = c.summarize(fd.Body)
			order = append(order, obj)
			c.trans[obj] = cloneSet(infos[obj].acquires)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			set := c.trans[fn]
			for _, callee := range infos[fn].callees {
				for cls := range c.calleeAcquires(callee) {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range order {
		fact := fnFact{Acquires: c.trans[fn]}
		if cls := c.returnsLatchClass(fn, infos); cls != "" {
			fact.ReturnsLatch = cls
		}
		pass.ExportFact(fn, fact)
	}

	// Phase B: path-structured walk of every function body.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkBody(fd.Body)
			}
		}
	}
	for pos, msg := range c.offenses {
		pass.Reportf(pos, "%s", msg)
	}
	return nil
}

// returnsLatchClass classifies functions that hand out latches (e.g.
// region's latchFor): a single *latch.Latch result whose every return
// expression classifies to one class.
func (c *checker) returnsLatchClass(fn *types.Func, infos map[*types.Func]*fnInfo) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 || !isLatchNamed(sig.Results().At(0).Type(), "Latch") {
		return ""
	}
	var body *ast.BlockStmt
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); obj == fn {
					body = fd.Body
				}
			}
		}
	}
	if body == nil {
		return ""
	}
	class := ""
	consistent := true
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		cls := c.classify(ret.Results[0])
		if cls == "" || (class != "" && class != cls) {
			consistent = false
			return true
		}
		class = cls
		return true
	})
	if !consistent {
		return ""
	}
	return class
}

// summarize computes a function body's direct latch acquisitions
// (including inside closures, which run under the function's latch
// regime when handed to the worker pool) and its resolvable callees.
func (c *checker) summarize(body *ast.BlockStmt) *fnInfo {
	info := &fnInfo{acquires: make(map[string]bool)}
	ast.Inspect(body, func(n ast.Node) bool {
		// Record latch aliases (l := s.prot.For(r)) so acquisitions
		// through locals classify.
		if as, ok := n.(*ast.AssignStmt); ok {
			c.recordAliases(as)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, recv := c.lockOp(call); op == opAcquire || op == opAcquireGuard {
			if cls := c.classify(recv); cls != "" {
				info.acquires[cls] = true
			}
		} else if callee := calleeOf(c.pass.TypesInfo, call); callee != nil {
			info.callees = append(info.callees, callee)
		}
		return true
	})
	return info
}

// calleeAcquires resolves a callee's transitive acquire set from the
// package-local fixpoint or, cross-package, from its exported fact.
func (c *checker) calleeAcquires(fn *types.Func) map[string]bool {
	if set, ok := c.trans[fn]; ok {
		return set
	}
	if f, ok := c.pass.Fact(fn); ok {
		if fact, ok := f.(fnFact); ok {
			return fact.Acquires
		}
	}
	return nil
}

// ---- Phase B: the path walk ----

type lockOp int

const (
	opNone         lockOp = iota
	opAcquire             // Lock / RLock on a latch or mutex
	opRelease             // Unlock / RUnlock
	opAcquireGuard        // Striped.AcquireRange
	opReleaseGuard        // MultiGuard.Release
)

type lockInfo struct {
	rend     string // rendered receiver expression, for release matching
	obj      types.Object
	class    string
	method   string // "Lock" or "RLock"; "guard" for MultiGuard
	pos      token.Pos
	deferred bool
	escaped  bool
}

type state struct {
	held []*lockInfo
}

func (s *state) clone() *state {
	return &state{held: append([]*lockInfo(nil), s.held...)}
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	st := &state{}
	c.walkStmts(body.List, st)
	c.checkExit(st, "function exit")
}

// checkExit records a balance offense for every latch still held.
func (c *checker) checkExit(st *state, where string) {
	for _, l := range st.held {
		if l.deferred || l.escaped {
			continue
		}
		if l.method == "guard" {
			c.offenses[l.pos] = "guard from AcquireRange is not released on every return path (missing defer Release?)"
		} else {
			unlock := "Unlock"
			if l.method == "RLock" {
				unlock = "RUnlock"
			}
			c.offenses[l.pos] = l.rend + "." + l.method + "() is not released on every return path (missing defer " + l.rend + "." + unlock + "()?)"
		}
		_ = where
	}
}

func (c *checker) walkStmts(stmts []ast.Stmt, st *state) {
	for _, stmt := range stmts {
		c.walkStmt(stmt, st)
	}
}

func (c *checker) walkStmt(stmt ast.Stmt, st *state) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			c.handleCall(call, st, nil)
		}
	case *ast.AssignStmt:
		c.recordAliases(s)
		var assignTo *ast.Ident
		if len(s.Lhs) == 1 {
			assignTo, _ = s.Lhs[0].(*ast.Ident)
		}
		for _, rhs := range s.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				c.handleCall(call, st, assignTo)
			} else {
				c.scanEscapes(rhs, st)
				c.checkFuncLits(rhs)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						if call, ok := ast.Unparen(v).(*ast.CallExpr); ok {
							c.handleCall(call, st, nil)
						}
					}
				}
			}
		}
	case *ast.DeferStmt:
		c.handleDefer(s.Call, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scanEscapes(r, st)
			c.checkFuncLits(r)
		}
		c.checkExit(st, "return")
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.checkFuncLits(s.Cond)
		c.walkStmts(s.Body.List, st.clone())
		if s.Else != nil {
			c.walkStmt(s.Else, st.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.walkStmts(s.Body.List, st.clone())
	case *ast.RangeStmt:
		c.walkStmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.checkBody(lit.Body)
		}
		for _, a := range s.Call.Args {
			c.scanEscapes(a, st)
			c.checkFuncLits(a)
		}
	}
}

// handleCall processes one call in execution position: latch
// acquisitions and releases mutate the state; other calls are checked
// against their callee's acquire summary and may carry closure
// arguments that are analyzed as independent bodies.
func (c *checker) handleCall(call *ast.CallExpr, st *state, assignTo *ast.Ident) {
	op, recv := c.lockOp(call)
	switch op {
	case opAcquire:
		cls := c.classify(recv)
		c.orderCheck(call, cls, st, "")
		sel := call.Fun.(*ast.SelectorExpr)
		st.held = append(st.held, &lockInfo{
			rend:   c.render(recv),
			class:  cls,
			method: sel.Sel.Name,
			pos:    call.Pos(),
		})
		return
	case opRelease:
		sel := call.Fun.(*ast.SelectorExpr)
		c.release(st, c.render(recv), unlockMatches(sel.Sel.Name), false)
		return
	case opAcquireGuard:
		cls := c.classify(recv)
		c.orderCheck(call, cls, st, "")
		li := &lockInfo{rend: "", class: cls, method: "guard", pos: call.Pos()}
		if assignTo != nil && assignTo.Name != "_" {
			li.rend = assignTo.Name
			li.obj = c.pass.TypesInfo.Defs[assignTo]
		} else {
			// Guard value not bound to a local: ownership moved
			// somewhere this analysis cannot follow.
			li.escaped = true
		}
		st.held = append(st.held, li)
		return
	case opReleaseGuard:
		c.release(st, c.render(recv), "guard", false)
		return
	}
	// Interprocedural order check via the callee's summary.
	if callee := calleeOf(c.pass.TypesInfo, call); callee != nil {
		for cls := range c.calleeAcquires(callee) {
			c.orderCheck(call, cls, st, callee.Name())
		}
	}
	for _, a := range call.Args {
		c.scanEscapes(a, st)
		c.checkFuncLits(a)
	}
}

// handleDefer marks deferred releases. A deferred closure is scanned for
// release calls (defer func() { ... mu.Unlock() ... }()) and otherwise
// analyzed as an independent body.
func (c *checker) handleDefer(call *ast.CallExpr, st *state) {
	if op, recv := c.lockOp(call); op == opRelease {
		sel := call.Fun.(*ast.SelectorExpr)
		c.release(st, c.render(recv), unlockMatches(sel.Sel.Name), true)
		return
	} else if op == opReleaseGuard {
		c.release(st, c.render(recv), "guard", true)
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, recv := c.lockOp(inner); op == opRelease {
				sel := inner.Fun.(*ast.SelectorExpr)
				c.release(st, c.render(recv), unlockMatches(sel.Sel.Name), true)
			} else if op == opReleaseGuard {
				c.release(st, c.render(recv), "guard", true)
			}
			return true
		})
	}
}

// release pops (or, for defers, pins) the most recent matching held
// latch. Releases with no matching acquisition — unlocking a latch the
// caller holds, cross-function brackets — are ignored.
func (c *checker) release(st *state, rend, method string, isDefer bool) {
	for i := len(st.held) - 1; i >= 0; i-- {
		l := st.held[i]
		if l.rend == rend && l.method == method {
			if isDefer {
				l.deferred = true
			} else {
				st.held = append(st.held[:i], st.held[i+1:]...)
			}
			return
		}
	}
}

// orderCheck reports the acquisition of class cls while a later-ranked
// latch is held. callee names the summarized function for
// interprocedural reports; empty for direct acquisitions.
func (c *checker) orderCheck(call *ast.CallExpr, cls string, st *state, callee string) {
	rank := anz.LatchRank(cls)
	if rank == 0 {
		return
	}
	for _, l := range st.held {
		if hr := anz.LatchRank(l.class); hr > rank {
			if callee != "" {
				c.pass.Reportf(call.Pos(), "call to %s acquires the %s latch while the %s latch is held (documented order: protection → codeword → syslog)", callee, cls, l.class)
			} else {
				c.pass.Reportf(call.Pos(), "acquires the %s latch while the %s latch is held (documented order: protection → codeword → syslog)", cls, l.class)
			}
			return
		}
	}
}

// scanEscapes marks guards whose value is used outside a release call:
// stored into a struct, returned, captured — ownership has moved.
func (c *checker) scanEscapes(n ast.Node, st *state) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		for _, l := range st.held {
			if l.obj != nil && l.obj == obj {
				l.escaped = true
			}
		}
		return true
	})
}

// checkFuncLits analyzes closures appearing in an expression as
// independent bodies (empty held set: a pool worker or goroutine does
// not inherit the spawner's latches).
func (c *checker) checkFuncLits(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkBody(lit.Body)
			return false
		}
		return true
	})
}

// ---- classification ----

// lockOp recognizes latch operations by method name and receiver type.
func (c *checker) lockOp(call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return opNone, nil
	}
	t := tv.Type
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opAcquire, sel.X
		}
	case "Unlock", "RUnlock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opRelease, sel.X
		}
	case "AcquireRange":
		if isLatchNamed(t, "Striped") {
			return opAcquireGuard, sel.X
		}
	case "Release":
		if isLatchNamed(t, "MultiGuard") {
			return opReleaseGuard, sel.X
		}
	}
	return opNone, nil
}

// recordAliases notes `l := <latch expr>` so later l.Lock() classifies.
func (c *checker) recordAliases(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if !isLatchNamed(obj.Type(), "Latch") && !isLatchNamed(obj.Type(), "Striped") {
			continue
		}
		if cls := c.classify(as.Rhs[i]); cls != "" {
			c.aliasClass[obj] = cls
		}
	}
}

// classify resolves the latch class of an expression: explicit
// //dbvet:latch annotation on the referenced declaration, a recorded
// alias, the class of a Striped handing out a stripe via For, a callee's
// ReturnsLatch fact, or the name-based fallback.
func (c *checker) classify(e ast.Expr) string {
	if e == nil {
		return ""
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			if cls, ok := c.aliasClass[obj]; ok {
				return cls
			}
			if cls, ok := c.fieldClass[obj]; ok {
				return cls
			}
		}
		return nameFallback(e.Name)
	case *ast.SelectorExpr:
		var obj types.Object
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
			obj = sel.Obj()
		} else {
			obj = c.pass.TypesInfo.Uses[e.Sel]
		}
		if obj != nil {
			if cls, ok := c.fieldClass[obj]; ok {
				return cls
			}
			return nameFallback(obj.Name())
		}
		return nameFallback(e.Sel.Name)
	case *ast.UnaryExpr:
		return c.classify(e.X)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "For" {
			if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && isLatchNamed(tv.Type, "Striped") {
				return c.classify(sel.X)
			}
		}
		// Accessor functions that hand out a latch (facts are exported
		// before the path walk, so same-package accessors resolve too).
		if callee := calleeOf(c.pass.TypesInfo, e); callee != nil {
			if f, ok := c.pass.Fact(callee); ok {
				if fact, ok := f.(fnFact); ok && fact.ReturnsLatch != "" {
					return fact.ReturnsLatch
				}
			}
		}
	}
	return ""
}

// nameFallback classifies by declaration name for unannotated code.
func nameFallback(name string) string {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "prot"):
		return anz.LatchProtection
	case strings.Contains(n, "cw") || strings.Contains(n, "codeword"):
		return anz.LatchCodeword
	case strings.Contains(n, "log"):
		return anz.LatchSyslog
	}
	return ""
}

// ---- small helpers ----

func unlockMatches(name string) string {
	if name == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isLatchNamed reports whether t (or its pointee) is the named type
// latch.<name> from the repo's latch package.
func isLatchNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "latch"
}

// isSyncMutex reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Mutex" || obj.Name() == "RWMutex") && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func (c *checker) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}
