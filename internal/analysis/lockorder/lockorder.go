// Package lockorder enforces the declared lock hierarchy: sync.Mutex /
// sync.RWMutex struct fields annotated //deltanet:lockrank <n> must be
// acquired in strictly increasing rank order, never held across a
// return without a deferred unlock, and never copied by value.
//
// Rationale: the server orders three locks, the metrics registry three,
// the monitor two, and an out-of-order acquisition anywhere in such a
// lattice is a deadlock that only bites under concurrent load — exactly
// the bug class the race detector cannot see. The annotation turns a
// doc comment's ordering into a machine-checked contract.
//
// Proving seed: in internal/server's writeStatusz, hold s.connMu
// (rank 20) while taking s.mu.RLock (rank 10). The inversion fails
// TestDnlintClean and nothing else in go vet or tier-1: TestOneWriter
// and TestTwoLocks count ranks, not acquisition order. (The by-value
// rules below overlap go vet's copylocks check.)
//
// The analysis is flow-sensitive within a function and summary-based
// across same-package calls:
//
//   - Each function body is walked with an abstract held-lock set.
//     Branches fork the set and merge (union) at join points; branches
//     that end in return/panic drop out of the merge. Acquiring a lock
//     of rank <= any held rank is a violation, as is reaching a return
//     with a lock held that has no deferred unlock.
//   - `go func(){...}` bodies are checked with an empty held set — a
//     goroutine does not inherit its creator's locks.
//   - Calls to same-package functions are checked against a transitive
//     summary of the ranks the callee may acquire; cross-package calls
//     are invisible (each package declares and checks its own lattice).
//   - Values whose type contains a mutex must not be passed, assigned,
//     ranged or returned by value (copying a held lock corrupts it).
//
// Unannotated mutexes (including local variables) participate in none
// of the ordering checks; ranks are per-package, and equal ranks mean
// "unordered peers" — acquiring one while holding the other is flagged.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"deltanet/internal/analysis/dnlint"
)

// Analyzer enforces //deltanet:lockrank acquisition order.
var Analyzer = &dnlint.Analyzer{
	Name:    "lockorder",
	Doc:     "check //deltanet:lockrank lock ordering, returns-while-locked, and mutex-by-value copies",
	Markers: []string{"lockrank"},
	Run:     run,
}

type rankInfo struct {
	rank    int
	display string // e.g. "Monitor.mu"
}

type analysis struct {
	pass      *dnlint.Pass
	ranks     map[*types.Var]rankInfo
	summaries map[*types.Func]map[int]string // func -> rank it may acquire -> display
}

func run(pass *dnlint.Pass) error {
	a := &analysis{pass: pass, ranks: collectRanks(pass)}

	funcs := make(map[*types.Func]*ast.FuncDecl)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				funcs[fn] = fd
			}
		}
	}
	a.buildSummaries(funcs)
	for _, fd := range decls {
		a.checkSignature(fd)
		w := &walker{a: a}
		st := &lockState{}
		if !w.stmts(fd.Body.List, st) {
			w.checkReturn(fd.Body.Rbrace, st)
		}
	}
	return nil
}

// collectRanks gathers //deltanet:lockrank annotations from struct
// fields, validating that each sits on a named sync.Mutex/sync.RWMutex
// field and carries an integer rank.
func collectRanks(pass *dnlint.Pass) map[*types.Var]rankInfo {
	ranks := make(map[*types.Var]rankInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				stype, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range stype.Fields.List {
					args, marked := dnlint.GroupMarker(field.Doc, "lockrank")
					if !marked {
						args, marked = dnlint.GroupMarker(field.Comment, "lockrank")
					}
					if !marked {
						continue
					}
					rank, err := strconv.Atoi(args)
					if err != nil {
						pass.Reportf(field.Pos(), "//deltanet:lockrank needs an integer rank, got %q", args)
						continue
					}
					if len(field.Names) == 0 {
						pass.Reportf(field.Pos(), "//deltanet:lockrank on an embedded field is not supported; name the mutex")
						continue
					}
					for _, name := range field.Names {
						v, ok := dnlint.FieldObj(pass.Info, name)
						if !ok {
							continue
						}
						if !isMutex(v.Type()) {
							pass.Reportf(name.Pos(), "//deltanet:lockrank on %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
							continue
						}
						ranks[v] = rankInfo{rank: rank, display: ts.Name.Name + "." + name.Name}
					}
				}
			}
		}
	}
	return ranks
}

func isMutex(t types.Type) bool {
	return dnlint.NamedType(t, "sync", "Mutex") || dnlint.NamedType(t, "sync", "RWMutex")
}

// mutexCall decodes x.<rankedField>.Lock/RLock/Unlock/RUnlock calls.
// TryLock/TryRLock are exempt from ordering (they cannot block).
func (a *analysis) mutexCall(call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	v := dnlint.SelectedVar(a.pass.Info, sel.X)
	if v == nil {
		return nil, "", false
	}
	if _, ranked := a.ranks[v]; !ranked {
		return nil, "", false
	}
	return v, sel.Sel.Name, true
}

// callee resolves a call to a same-package named function or method.
func (a *analysis) callee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = a.pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = a.pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != a.pass.Pkg {
		return nil
	}
	return fn
}

// buildSummaries computes, for every function in the package, the set
// of ranked locks it (transitively, through same-package calls) may
// acquire. Goroutine bodies are excluded: their acquisitions happen on
// a different stack.
func (a *analysis) buildSummaries(funcs map[*types.Func]*ast.FuncDecl) {
	direct := make(map[*types.Func]map[int]string, len(funcs))
	calls := make(map[*types.Func]map[*types.Func]bool, len(funcs))
	for fn, fd := range funcs {
		d := make(map[int]string)
		cs := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if v, method, ok := a.mutexCall(n); ok {
					if method == "Lock" || method == "RLock" {
						ri := a.ranks[v]
						if _, seen := d[ri.rank]; !seen {
							d[ri.rank] = ri.display
						}
					}
				} else if callee := a.callee(n); callee != nil {
					cs[callee] = true
				}
			}
			return true
		})
		direct[fn] = d
		calls[fn] = cs
	}
	a.summaries = direct
	for changed := true; changed; {
		changed = false
		for fn := range funcs {
			sum := a.summaries[fn]
			for callee := range calls[fn] {
				for r, disp := range a.summaries[callee] {
					if _, seen := sum[r]; !seen {
						sum[r] = disp
						changed = true
					}
				}
			}
		}
	}
}

// --- flow-sensitive per-function walk ---

type heldLock struct {
	v        *types.Var
	rank     int
	display  string
	deferred bool // a deferred unlock is pending
	frame    int  // which function literal nesting level acquired it
	pos      token.Pos
}

type lockState struct {
	held []heldLock
}

func (s *lockState) clone() *lockState {
	return &lockState{held: append([]heldLock(nil), s.held...)}
}

func mergeStates(a, b *lockState) *lockState {
	out := a.clone()
	for _, hb := range b.held {
		found := false
		for i, ha := range out.held {
			if ha.v == hb.v && ha.frame == hb.frame {
				out.held[i].deferred = ha.deferred || hb.deferred
				found = true
				break
			}
		}
		if !found {
			out.held = append(out.held, hb)
		}
	}
	return out
}

type walker struct {
	a     *analysis
	frame int
}

func (w *walker) stmts(list []ast.Stmt, st *lockState) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt walks one statement, mutating st; it reports true when the
// statement terminates the control path (return, panic, branch).
func (w *walker) stmt(s ast.Stmt, st *lockState) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, st)
			w.a.checkCopy(e, "assignment copies")
		}
		for _, e := range s.Lhs {
			w.expr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, st)
						w.a.checkCopy(e, "variable declaration copies")
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st)
			w.a.checkCopy(e, "return copies")
		}
		w.checkReturn(s.Pos(), st)
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the linear path; treating them as
		// terminating loses their lock effects, which can only under-
		// report (loop merges already union the body with the entry).
		return true
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.stmt(s.Body, thenSt)
		if s.Else != nil {
			elseSt := st.clone()
			elseTerm := w.stmt(s.Else, elseSt)
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				*st = *elseSt
			case elseTerm:
				*st = *thenSt
			default:
				*st = *mergeStates(thenSt, elseSt)
			}
			return false
		}
		if !thenTerm {
			*st = *mergeStates(st, thenSt)
		}
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		if s.Cond != nil {
			w.expr(s.Cond, st)
		}
		bodySt := st.clone()
		if !w.stmt(s.Body, bodySt) {
			w.stmt(s.Post, bodySt)
		}
		*st = *mergeStates(st, bodySt)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		if s.Value != nil {
			w.a.checkCopyType(s.Value, "range copies")
		}
		bodySt := st.clone()
		w.stmt(s.Body, bodySt)
		*st = *mergeStates(st, bodySt)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		if s.Tag != nil {
			w.expr(s.Tag, st)
		}
		return w.clauses(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		return w.clauses(s.Body, st, false)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st, true)
	case *ast.DeferStmt:
		w.deferStmt(s, st)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			for _, arg := range s.Call.Args {
				w.expr(arg, st)
			}
			fresh := &lockState{}
			w.frame++
			if !w.stmts(lit.Body.List, fresh) {
				w.checkReturn(lit.Body.Rbrace, fresh)
			}
			w.frame--
		} else {
			w.expr(s.Call.Fun, st)
			for _, arg := range s.Call.Args {
				w.expr(arg, st)
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.EmptyStmt:
	default:
		// Unknown statement kind: scan its expressions conservatively.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, st)
				return false
			}
			return true
		})
	}
	return false
}

// clauses handles switch/type-switch/select bodies: each clause runs
// from the entry state; non-terminating clause exits merge, plus the
// entry state itself when a switch has no default (no clause may run).
func (w *walker) clauses(body *ast.BlockStmt, st *lockState, isSelect bool) bool {
	var exits []*lockState
	hasDefault := false
	clauseCount := 0
	for _, cs := range body.List {
		clauseCount++
		clSt := st.clone()
		var bodyList []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.expr(e, st)
			}
			bodyList = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(c.Comm, clSt)
			}
			bodyList = c.Body
		default:
			continue
		}
		if !w.stmts(bodyList, clSt) {
			exits = append(exits, clSt)
		}
	}
	// A select with no default blocks until exactly one clause runs; a
	// switch may run no clause unless it has a default.
	mayFallThrough := !isSelect && !hasDefault
	if len(exits) == 0 {
		if clauseCount > 0 && !mayFallThrough {
			return true // every reachable clause terminated
		}
		return false // entry state flows through unchanged
	}
	merged := exits[0]
	for _, e := range exits[1:] {
		merged = mergeStates(merged, e)
	}
	if mayFallThrough {
		merged = mergeStates(merged, st)
	}
	*st = *merged
	return false
}

// deferStmt handles defer: a deferred unlock marks the lock as covered
// at returns (but still held for ordering); deferred closures are
// scanned for the unlocks they will perform; other deferred calls are
// order-checked against the current held set (they run at return time,
// when these locks may still be held).
func (w *walker) deferStmt(s *ast.DeferStmt, st *lockState) {
	for _, arg := range s.Call.Args {
		w.expr(arg, st)
	}
	if v, method, ok := w.a.mutexCall(s.Call); ok {
		if method == "Unlock" || method == "RUnlock" {
			st.markDeferred(v)
		}
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v, method, ok := w.a.mutexCall(call); ok && (method == "Unlock" || method == "RUnlock") {
					st.markDeferred(v)
				}
			}
			return true
		})
		return
	}
	w.checkCallSummary(s.Call, st)
}

func (s *lockState) markDeferred(v *types.Var) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].v == v {
			s.held[i].deferred = true
			return
		}
	}
}

// expr walks an expression: lock/unlock calls mutate the state, calls
// are checked against callee summaries, and function literals are
// walked in a nested frame sharing the current state (a closure invoked
// here runs on this stack; goroutine bodies are handled in stmt).
func (w *walker) expr(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.frame++
			if !w.stmts(n.Body.List, st) {
				w.checkReturn(n.Body.Rbrace, st)
			}
			w.frame--
			return false
		case *ast.CallExpr:
			w.call(n, st)
			// Descend: nested calls in the arguments get their own events.
			return true
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr, st *lockState) {
	if v, method, ok := w.a.mutexCall(call); ok {
		ri := w.a.ranks[v]
		switch method {
		case "Lock", "RLock":
			for _, h := range st.held {
				if ri.rank <= h.rank {
					w.a.pass.Reportf(call.Pos(),
						"acquires %s (lockrank %d) while %s (lockrank %d) is held; locks must be acquired in increasing rank order",
						ri.display, ri.rank, h.display, h.rank)
					break
				}
			}
			st.held = append(st.held, heldLock{v: v, rank: ri.rank, display: ri.display, frame: w.frame, pos: call.Pos()})
		case "Unlock", "RUnlock":
			for i := len(st.held) - 1; i >= 0; i-- {
				if st.held[i].v == v {
					st.held = append(st.held[:i], st.held[i+1:]...)
					break
				}
			}
		}
		return
	}
	w.checkCallSummary(call, st)
}

func (w *walker) checkCallSummary(call *ast.CallExpr, st *lockState) {
	fn := w.a.callee(call)
	if fn == nil {
		return
	}
	sum := w.a.summaries[fn]
	if len(sum) == 0 {
		return
	}
	for _, h := range st.held {
		for r, disp := range sum {
			if r <= h.rank {
				w.a.pass.Reportf(call.Pos(),
					"call to %s acquires %s (lockrank %d) while %s (lockrank %d) is held; locks must be acquired in increasing rank order",
					fn.Name(), disp, r, h.display, h.rank)
				return
			}
		}
	}
}

// checkReturn flags locks acquired in the current frame that reach a
// return (or the end of the body) without a deferred unlock.
func (w *walker) checkReturn(pos token.Pos, st *lockState) {
	for _, h := range st.held {
		if h.frame == w.frame && !h.deferred {
			w.a.pass.Reportf(pos, "returns with %s (lockrank %d) held without a deferred unlock", h.display, h.rank)
		}
	}
}

// --- mutex-by-value copy checks ---

// checkSignature flags by-value receivers, parameters and results whose
// type contains a mutex.
func (a *analysis) checkSignature(fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := a.pass.Info.Types[field.Type]
			if !ok {
				continue
			}
			if path := mutexPath(tv.Type, make(map[types.Type]bool)); path != "" {
				a.pass.Reportf(field.Pos(), "%s of %s passes %s by value", what, fd.Name.Name, path)
			}
		}
	}
	check(fd.Recv, "receiver")
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

// checkCopy flags expressions that copy an existing mutex-bearing value
// (composite literals and calls produce fresh values and are exempt).
func (a *analysis) checkCopy(e ast.Expr, what string) {
	switch unparen(e).(type) {
	case *ast.CompositeLit, *ast.CallExpr, *ast.FuncLit, *ast.BasicLit, *ast.UnaryExpr, *ast.BinaryExpr:
		return
	}
	a.checkCopyType(e, what)
}

func (a *analysis) checkCopyType(e ast.Expr, what string) {
	tv, ok := a.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if path := mutexPath(tv.Type, make(map[types.Type]bool)); path != "" {
		a.pass.Reportf(e.Pos(), "%s %s by value", what, path)
	}
}

// mutexPath reports how t embeds a mutex ("a sync.Mutex", "M (contains
// sync.RWMutex)"), or "" when t is safely copyable.
func mutexPath(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if isMutex(t) {
		return "a " + types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if inner := mutexPath(t.Underlying(), seen); inner != "" {
			return t.Obj().Name() + " (contains " + inner + ")"
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if inner := mutexPath(t.Field(i).Type(), seen); inner != "" {
				return inner
			}
		}
	case *types.Array:
		return mutexPath(t.Elem(), seen)
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
