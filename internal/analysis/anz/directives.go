package anz

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/load"
)

// The canonical dbvet passes. The allow directive validates its pass
// operand against this set so a typo ("latchorderr") cannot silently
// suppress nothing.
var knownPasses = map[string]bool{
	"latchorder":   true,
	"guardedwrite": true,
	"cwpair":       true,
	"obsnames":     true,
	"iopath":       true,
	"errflow":      true,
	"twophase":     true,
	"ctxflow":      true,
	"lockfield":    true,
	"latchcycle":   true,
	"determinism":  true,
}

// Latch classes of the documented partial order, in acquisition order:
// a latch may only be acquired while no latch of an equal or later class
// is held. See DESIGN.md "Machine-checked invariants".
const (
	LatchProtection = "protection"
	LatchCodeword   = "codeword"
	LatchSyslog     = "syslog"
)

// LatchRank maps a latch class to its position in the partial order
// (lower acquires first). Unknown classes rank 0 (unordered).
func LatchRank(class string) int {
	switch class {
	case LatchProtection:
		return 1
	case LatchCodeword:
		return 2
	case LatchSyslog:
		return 3
	}
	return 0
}

// allowIndex records //dbvet:allow directives: file → line → pass set.
type allowIndex map[string]map[int]map[string]bool

// allowed reports whether a diagnostic of pass at pos is suppressed by a
// directive on the same line or the line immediately above it.
func (ai allowIndex) allowed(pass string, pos token.Position) bool {
	lines := ai[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][pass] || lines[pos.Line-1][pass]
}

// collectDirectives scans the comments of prog's target packages for
// //dbvet:allow directives, returning the suppression index and a
// diagnostic (pass "dbvet") for every malformed directive: unknown pass
// name or missing reason. Only target packages are scanned — dependency
// packages are analyzed for facts, not reported on.
func collectDirectives(prog *load.Program) (allowIndex, []Diagnostic) {
	ai := make(allowIndex)
	var diags []Diagnostic
	bad := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: prog.Fset.Position(pos), Message: msg, Pass: "dbvet"})
	}
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//dbvet:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						bad(c.Pos(), "malformed //dbvet:allow: missing pass name")
						continue
					}
					pass := fields[0]
					if !knownPasses[pass] {
						bad(c.Pos(), "//dbvet:allow names unknown pass "+pass)
						continue
					}
					if len(fields) < 2 {
						bad(c.Pos(), "//dbvet:allow "+pass+": a reason is required")
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					lines := ai[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						ai[pos.Filename] = lines
					}
					passes := lines[pos.Line]
					if passes == nil {
						passes = make(map[string]bool)
						lines[pos.Line] = passes
					}
					passes[pass] = true
				}
			}
		}
	}
	return ai, diags
}

// CountAllows tallies the well-formed //dbvet:allow directives of
// prog's target packages, by pass name. This is the suppression-debt
// measure behind `dbvet -stats`: every allow site is a hand-argued
// exception to a machine-checked invariant, and the debt gate holds the
// count to a checked-in baseline so exceptions cannot accrete silently.
// Malformed directives (unknown pass, missing reason) are not counted —
// they are diagnostics, not debt.
func CountAllows(prog *load.Program) map[string]int {
	counts := make(map[string]int)
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//dbvet:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 || !knownPasses[fields[0]] {
						continue
					}
					counts[fields[0]]++
				}
			}
		}
	}
	return counts
}

// LatchClasses extracts //dbvet:latch <class> annotations from the
// declarations of pkg: for every struct field or package-level variable
// whose doc or trailing comment carries the directive, the declared
// object is mapped to its latch class. The latchorder pass combines
// these explicit classifications with its name-based fallback.
func LatchClasses(pass *Pass) map[types.Object]string {
	classes := make(map[types.Object]string)
	classOf := func(groups ...*ast.CommentGroup) string {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if rest, ok := strings.CutPrefix(c.Text, "//dbvet:latch"); ok {
					// Only the first word is the class; the remainder is
					// free-form commentary.
					if fields := strings.Fields(rest); len(fields) > 0 {
						return fields[0]
					}
				}
			}
		}
		return ""
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					cls := classOf(field.Doc, field.Comment)
					if cls == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							classes[obj] = cls
						}
					}
				}
			case *ast.ValueSpec:
				if cls := classOf(n.Doc, n.Comment); cls != "" {
					for _, name := range n.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							classes[obj] = cls
						}
					}
				}
			}
			return true
		})
	}
	return classes
}
