// Package lockfield infers, for every data field of a latch-carrying
// struct in the engine's concurrent packages, the lock that guards it —
// and reports the access sites that break the inferred discipline.
//
// The paper's protection scheme hangs its correctness on hand-written
// comments of the form "guarded by mu": the system log latch guards the
// tail and the stable end, the router's decision mutex guards
// the in-doubt decision maps, the checkpoint set's mutex guards the
// dirty map. dbvet's latchorder pass checks how latches nest but not
// *what they protect*; this pass closes that gap with a lockset
// inference in the Eraser tradition, adapted to static form:
//
//  1. A struct is "guardable" when it declares at least one latch field
//     (latch.Latch, latch.Striped, sync.Mutex, sync.RWMutex).
//  2. At every read or write of a guardable struct's data fields the
//     pass computes the set of locks held *for that receiver* — via
//     direct x.mu.Lock() brackets, latch aliases (lk := t.latchFor(r)),
//     Striped.AcquireRange guards, and the *Locked method-suffix
//     convention (the caller holds the latch).
//  3. Per field, the candidate lock is the one held at the most access
//     sites. Sites where the candidate is not held are reported when
//     the guarded sites dominate (at least two guarded sites, and
//     strictly more guarded than bare) — the "guarded on some paths,
//     bare on others" shape that signals a forgotten bracket rather
//     than an unguarded-by-design field.
//
// Deliberate exemptions, each an invariant of its own:
//   - constructor-shaped functions (New*/new*/Open*/open*/init*): the
//     value is not yet shared, so bare stores are the norm;
//   - methods whose name ends in "Locked": the receiver's latch is held
//     by the caller per the repo-wide suffix convention;
//   - fields of atomic, channel, or lock type, and obs metric handles
//     (Counter/Gauge/Histogram/Registry): internally synchronized;
//   - closures inherit the spawner's held set (a sort.Slice comparator
//     runs under the caller's latch; a goroutine that touches guarded
//     state bare is under-reported, never false-positive).
package lockfield

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/anz"
)

// Analyzer is the lockfield pass.
var Analyzer = &anz.Analyzer{
	Name: "lockfield",
	Doc:  "struct fields guarded by a latch on most paths must not be accessed bare on others",
	Run:  run,
}

// scopePkgs are the packages whose structs are held to the inferred
// lockset discipline: everything that shares mutable engine state
// across goroutines.
var scopePkgs = []string{
	"internal/wal",
	"internal/shard",
	"internal/ckpt",
	"internal/lockmgr",
	"internal/region",
}

func inScope(importPath string) bool {
	for _, p := range scopePkgs {
		if strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return strings.Contains(importPath, "/testdata/")
}

// heldLock is one lock known held at a program point: the rendered
// receiver expression it belongs to and the lock field's name ("*" when
// the specific field is unknown — accessor aliases and the *Locked
// caller-holds convention).
type heldLock struct {
	base string
	lock string
}

// site is one access of a tracked field.
type site struct {
	pos   token.Pos
	write bool
	// held lists the lock names held for the access's receiver ("*"
	// matches any candidate).
	held []string
}

// fieldInfo accumulates a field's access sites across the package.
type fieldInfo struct {
	fld   *types.Var
	owner string // struct type name, for diagnostics
	sites []*site
}

type checker struct {
	pass      *anz.Pass
	fields    map[*types.Var]*fieldInfo
	guardable map[*types.Named]bool
	// aliases maps local latch variables to the receiver they guard.
	aliases map[types.Object]heldLock
}

func run(pass *anz.Pass) error {
	if !inScope(pass.Pkg.ImportPath) {
		return nil
	}
	c := &checker{
		pass:      pass,
		fields:    make(map[*types.Var]*fieldInfo),
		guardable: make(map[*types.Named]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || constructorShaped(fd.Name.Name) {
				continue
			}
			c.aliases = make(map[types.Object]heldLock)
			var held []heldLock
			// The *Locked suffix convention: the caller holds (one of)
			// the receiver's latches for the whole body.
			if recv := recvName(fd); recv != "" && strings.HasSuffix(fd.Name.Name, "Locked") {
				held = append(held, heldLock{base: recv, lock: "*"})
			}
			c.walkStmts(fd.Body.List, held)
		}
	}
	c.report()
	return nil
}

// constructorShaped reports functions in which the receiver (or result)
// is still private to one goroutine, so bare stores are expected.
func constructorShaped(name string) bool {
	for _, p := range []string{"new", "New", "open", "Open", "init", "Init"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// ---- the walk ----

// walkStmts threads the held set through a statement list, cloning it
// into branches so a lock taken inside an if-arm does not leak past it.
func (c *checker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = c.walkStmt(stmt, held)
	}
	return held
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (c *checker) walkStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return c.scanExpr(s.X, held, nil)
	case *ast.AssignStmt:
		return c.scanAssign(s, held)
	case *ast.IncDecStmt:
		if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok {
			c.recordAccess(sel, held, true)
			return c.scanExpr(s.X, held, map[ast.Expr]bool{sel: true})
		}
		return c.scanExpr(s.X, held, nil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = c.scanExpr(v, held, nil)
					}
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// A deferred unlock runs at return; the latch stays held for
		// the rest of the body. Deferred closures are scanned for
		// accesses under the current held set.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, cloneHeld(held))
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = c.scanExpr(r, held, nil)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		held = c.scanExpr(s.Cond, held, nil)
		c.walkStmts(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			c.walkStmt(s.Else, cloneHeld(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, cloneHeld(held), nil)
		}
		c.walkStmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.RangeStmt:
		c.scanExpr(s.X, held, nil)
		c.walkStmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			held = c.scanExpr(s.Tag, held, nil)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// A spawned goroutine runs under whatever latches it takes
		// itself; accesses inside it against the spawner's held set
		// would be wrong in both directions, so inherit (see package
		// doc: under-report, never false-positive).
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, cloneHeld(held))
		}
		return held
	case *ast.SendStmt:
		held = c.scanExpr(s.Chan, held, nil)
		return c.scanExpr(s.Value, held, nil)
	}
	return held
}

// scanAssign records aliases, classifies LHS field writes, and scans
// both sides for lock operations and further accesses.
func (c *checker) scanAssign(s *ast.AssignStmt, held []heldLock) []heldLock {
	c.recordAliases(s)
	writes := make(map[ast.Expr]bool)
	for _, lhs := range s.Lhs {
		if sel := baseSelector(lhs); sel != nil {
			c.recordAccess(sel, held, true)
			writes[sel] = true
		}
	}
	for _, lhs := range s.Lhs {
		held = c.scanExpr(lhs, held, writes)
	}
	for _, rhs := range s.Rhs {
		held = c.scanExpr(rhs, held, writes)
	}
	return held
}

// scanExpr visits an expression in evaluation order, updating the held
// set at lock operations and recording tracked-field accesses. seen
// suppresses re-recording selectors already classified as writes.
func (c *checker) scanExpr(e ast.Expr, held []heldLock, seen map[ast.Expr]bool) []heldLock {
	if e == nil {
		return held
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walkStmts(n.Body.List, cloneHeld(held))
			return false
		case *ast.CallExpr:
			if hl, op, ok := c.lockOp(n); ok {
				switch op {
				case "acquire":
					held = append(held, hl)
				case "release":
					held = removeHeld(held, hl)
				}
				// Still descend: the receiver expression may itself
				// read tracked fields (s.parts[i].mu.Lock()).
			}
		case *ast.SelectorExpr:
			if seen == nil || !seen[n] {
				c.recordAccess(n, held, false)
			}
			// Descend into the base but not the Sel identifier.
			ast.Inspect(n.X, visit)
			return false
		}
		return true
	}
	ast.Inspect(e, visit)
	return held
}

// baseSelector unwraps an assignment target to the field selector being
// stored through: t.cws[r] = 0 and *s.ptr = x both write the field.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func removeHeld(held []heldLock, hl heldLock) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == hl {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// lockOp recognizes lock mutations: Lock/RLock (acquire), Unlock/RUnlock
// (release), Striped.AcquireRange (acquire). The returned heldLock names
// the receiver the lock protects.
func (c *checker) lockOp(call *ast.CallExpr) (heldLock, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, "", false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return heldLock{}, "", false
	}
	t := tv.Type
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if isLatchType(t, "Latch") || isSyncMutex(t) {
			op = "acquire"
		}
	case "Unlock", "RUnlock":
		if isLatchType(t, "Latch") || isSyncMutex(t) {
			op = "release"
		}
	case "AcquireRange":
		if isLatchType(t, "Striped") {
			return c.lockRef(sel.X), "acquire", true
		}
	}
	if op == "" {
		return heldLock{}, "", false
	}
	return c.lockRef(sel.X), op, true
}

// lockRef resolves the lock expression of a Lock call to the receiver
// it guards: x.mu → {x, mu}; an aliased local resolves through the
// alias table; anything else guards only its own render.
func (c *checker) lockRef(e ast.Expr) heldLock {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return heldLock{base: render(e.X), lock: e.Sel.Name}
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			if hl, ok := c.aliases[obj]; ok {
				return hl
			}
		}
		return heldLock{base: e.Name, lock: "*"}
	case *ast.UnaryExpr:
		return c.lockRef(e.X)
	}
	return heldLock{base: render(e), lock: "*"}
}

// recordAliases notes lk := s.mu and lk := s.latchFor(r) so a later
// lk.Lock() is credited to s.
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
		if obj == nil || !isLatchHandle(obj.Type()) {
			continue
		}
		switch rhs := ast.Unparen(as.Rhs[i]).(type) {
		case *ast.SelectorExpr:
			c.aliases[obj] = heldLock{base: render(rhs.X), lock: rhs.Sel.Name}
		case *ast.UnaryExpr:
			if sel, ok := ast.Unparen(rhs.X).(*ast.SelectorExpr); ok {
				c.aliases[obj] = heldLock{base: render(sel.X), lock: sel.Sel.Name}
			}
		case *ast.CallExpr:
			// Accessor methods handing out one of the receiver's
			// latches (t.latchFor(r), s.prot.For(r)): which latch field
			// is unknown here, so the alias matches any candidate.
			if sel, ok := rhs.Fun.(*ast.SelectorExpr); ok {
				if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && isLatchType(tv.Type, "Striped") {
					if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
						c.aliases[obj] = heldLock{base: render(inner.X), lock: inner.Sel.Name}
						continue
					}
				}
				c.aliases[obj] = heldLock{base: render(sel.X), lock: "*"}
			}
		}
	}
}

// recordAccess classifies one selector expression: if it reads or
// writes a tracked data field of a guardable struct, the access and the
// locks held for its receiver are recorded.
func (c *checker) recordAccess(sel *ast.SelectorExpr, held []heldLock, write bool) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fld, ok := selection.Obj().(*types.Var)
	if !ok || fld.Pkg() == nil || fld.Pkg().Path() != pkgPath(c.pass) {
		return
	}
	recvT := selection.Recv()
	if p, ok := recvT.(*types.Pointer); ok {
		recvT = p.Elem()
	}
	named, ok := recvT.(*types.Named)
	if !ok || !c.isGuardable(named) || !trackedField(fld.Type()) {
		return
	}
	base := render(sel.X)
	var names []string
	for _, hl := range held {
		if hl.base == base {
			names = append(names, hl.lock)
		}
	}
	fi := c.fields[fld]
	if fi == nil {
		fi = &fieldInfo{fld: fld, owner: named.Obj().Name()}
		c.fields[fld] = fi
	}
	fi.sites = append(fi.sites, &site{pos: sel.Pos(), write: write, held: names})
}

func pkgPath(pass *anz.Pass) string {
	if pass.Pkg.Types != nil {
		return pass.Pkg.Types.Path()
	}
	return pass.Pkg.ImportPath
}

// isGuardable reports whether the named struct declares a latch field.
func (c *checker) isGuardable(named *types.Named) bool {
	if g, ok := c.guardable[named]; ok {
		return g
	}
	st, ok := named.Underlying().(*types.Struct)
	g := false
	if ok {
		for i := 0; i < st.NumFields(); i++ {
			if isLockType(st.Field(i).Type()) {
				g = true
				break
			}
		}
	}
	c.guardable[named] = g
	return g
}

// ---- reporting ----

func (c *checker) report() {
	for _, fi := range c.fields {
		// Candidate lock: the specific lock name held at the most
		// sites; wildcard-held sites count toward every candidate.
		counts := make(map[string]int)
		for _, s := range fi.sites {
			for _, l := range s.held {
				if l != "*" {
					counts[l]++
				}
			}
		}
		candidate := "*"
		names := make([]string, 0, len(counts))
		for l := range counts {
			names = append(names, l)
		}
		sort.Strings(names)
		best := 0
		for _, l := range names {
			if counts[l] > best {
				best, candidate = counts[l], l
			}
		}
		guarded, bare := 0, 0
		var bareSites []*site
		for _, s := range fi.sites {
			if holdsCandidate(s.held, candidate) {
				guarded++
			} else {
				bare++
				bareSites = append(bareSites, s)
			}
		}
		if guarded < 2 || guarded <= bare {
			continue
		}
		lockName := candidate
		if lockName == "*" {
			lockName = "its latch"
		}
		for _, s := range bareSites {
			verb := "read"
			if s.write {
				verb = "written"
			}
			c.pass.Reportf(s.pos, "field %s of %s is guarded by %s at %d of %d sites but %s here with no latch held",
				fi.fld.Name(), fi.owner, lockName, guarded, guarded+bare, verb)
		}
	}
}

func holdsCandidate(held []string, candidate string) bool {
	for _, l := range held {
		if l == candidate || l == "*" || candidate == "*" {
			return true
		}
	}
	return false
}

// ---- type predicates ----

// trackedField excludes fields that synchronize themselves: locks,
// atomics, channels, wait groups, and obs metric handles.
func trackedField(t types.Type) bool {
	if isLockType(t) {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return false
	}
	base := t
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	if named, ok := base.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync/atomic", "sync":
				return false
			}
			if strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
				return false
			}
		}
	}
	return true
}

func isLockType(t types.Type) bool {
	return isLatchType(t, "Latch") || isLatchType(t, "Striped") || isSyncMutex(t)
}

func isLatchType(t types.Type, name string) bool {
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

// isLatchHandle reports lock-valued locals eligible as aliases.
func isLatchHandle(t types.Type) bool {
	return isLatchType(t, "Latch") || isLatchType(t, "Striped") || isSyncMutex(t)
}

func render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return buf.String()
}
