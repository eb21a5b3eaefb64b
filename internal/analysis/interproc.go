package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the julvet engine
// (DESIGN.md §13). The per-function lexical analyzers of PR 5 stop at
// the function boundary; every contract the serving layer now relies
// on (admission release pairing, cancel-func obligations, recover
// guards installed by helpers) routinely crosses it. The layer has
// two parts:
//
//   - a fact store: bottom-up summaries of what each function does to
//     the values it receives or returns (calls the cancel func it is
//     handed, installs the recover guard, returns a release closure,
//     ...). Facts are computed over every package in the load
//     unit in a fixpoint, so helper chains and cross-package calls
//     resolve as long as both sides are part of the unit (which
//     `julvet ./...` and the fixture loader guarantee).
//   - serialization: each package's facts round-trip through JSON the
//     moment they are computed, mirroring how go/analysis facts travel
//     alongside gc export data. The analyzers only ever read the
//     re-imported copy, so the wire format cannot silently rot — if a
//     fact stops surviving the round trip, the analyzers lose it and
//     the fixture suite fails.
//
// Facts deliberately summarize *behavior visible at the call site*,
// not full dataflow: "this function, handed a cancel func in parameter
// 1, calls it on every path". That is exactly the granularity the
// pairing analyzers need to keep walking past a call.

// FuncFacts is the exported summary of one function, serialized as
// JSON alongside the load. The zero value means "nothing known" and is
// what callers get for functions outside the unit.
type FuncFacts struct {
	// CancelsParams lists the 0-based indices of context.CancelFunc
	// parameters invoked (or deferred) on every path.
	CancelsParams []int `json:"cancels_params,omitempty"`

	// InstallsRecover: the function's first top-level statements
	// include `defer recoverPanic()` (or `defer x.recoverPanic()`), so
	// spawning it — or letting it call caller-supplied function values —
	// is panic-contained.
	InstallsRecover bool `json:"installs_recover,omitempty"`

	// ReleaseResult/OKResult/ErrResult describe admit-style helpers:
	// the function acquires a semaphore and returns a closure that
	// releases it. ReleaseResult is the 1-based index of that closure
	// among the results (0 = no such result). OKResult / ErrResult are
	// the 1-based indices of a companion bool / error result gating
	// the obligation (the closure must be called only when the bool is
	// true / the error is nil); 0 = unconditional.
	ReleaseResult int `json:"release_result,omitempty"`
	OKResult      int `json:"ok_result,omitempty"`
	ErrResult     int `json:"err_result,omitempty"`

	// SemaReleaseParams lists the 0-based indices of parameters on
	// which the function calls release()/Release() on every path, so a
	// caller holding that semaphore may discharge through the call.
	SemaReleaseParams []int `json:"sema_release_params,omitempty"`
}

// zero reports whether no fact is set (such entries are not exported).
func (f FuncFacts) zero() bool {
	return len(f.CancelsParams) == 0 && !f.InstallsRecover &&
		f.ReleaseResult == 0 && len(f.SemaReleaseParams) == 0
}

func (f FuncFacts) equal(g FuncFacts) bool {
	return intsEqual(f.CancelsParams, g.CancelsParams) &&
		f.InstallsRecover == g.InstallsRecover &&
		f.ReleaseResult == g.ReleaseResult && f.OKResult == g.OKResult &&
		f.ErrResult == g.ErrResult &&
		intsEqual(f.SemaReleaseParams, g.SemaReleaseParams)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuncKey is the serializable identity of a function: import path,
// optional receiver type, and name — "pkg/path.Name" or
// "pkg/path.(Recv).Name". It is what keys the fact store on the wire.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// factsEnabled is the mutation-test knob: the load-bearing tests in
// interproc_test.go flip it off and prove that the cross-function
// fixture diagnostics appear or disappear accordingly, so the
// interprocedural edges cannot silently rot into dead code.
var factsEnabled = true

// Facts is the unit-wide fact store the analyzers read.
type Facts struct {
	funcs map[string]FuncFacts
}

func newFacts() *Facts { return &Facts{funcs: map[string]FuncFacts{}} }

// Of returns the facts for fn (the zero value when none are known or
// the interprocedural layer is disabled).
func (s *Facts) Of(fn *types.Func) FuncFacts {
	if s == nil || fn == nil || !factsEnabled {
		return FuncFacts{}
	}
	return s.funcs[FuncKey(fn)]
}

func (s *Facts) set(key string, f FuncFacts) {
	if key == "" {
		return
	}
	if f.zero() {
		delete(s.funcs, key)
		return
	}
	s.funcs[key] = f
}

// ExportPackage serializes every fact belonging to pkgPath, sorted by
// key for determinism.
func (s *Facts) ExportPackage(pkgPath string) ([]byte, error) {
	out := map[string]FuncFacts{}
	for k, f := range s.funcs {
		if strings.HasPrefix(k, pkgPath+".") {
			out[k] = f
		}
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]struct {
		Key   string    `json:"key"`
		Facts FuncFacts `json:"facts"`
	}, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, struct {
			Key   string    `json:"key"`
			Facts FuncFacts `json:"facts"`
		}{k, out[k]})
	}
	return json.Marshal(ordered)
}

// ImportPackage merges serialized facts into the store.
func (s *Facts) ImportPackage(data []byte) error {
	var in []struct {
		Key   string    `json:"key"`
		Facts FuncFacts `json:"facts"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("importing facts: %v", err)
	}
	for _, e := range in {
		s.set(e.Key, e.Facts)
	}
	return nil
}

// funcInfo locates one declared function's body inside the unit.
type funcInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Unit is one analysis load: every package analyzed together, plus the
// fact store computed over all of them. Cross-package resolution works
// exactly for functions inside the unit; everything else is summarized
// by export data alone and has no facts.
type Unit struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Facts *Facts

	bodies map[string]funcInfo // FuncKey -> declaration
}

// NewUnit indexes the packages and computes the fact store to a
// fixpoint. Each package's facts pass through the JSON round trip
// before the analyzers can see them (see the file comment).
func NewUnit(pkgs []*Package) *Unit {
	u := &Unit{Pkgs: pkgs, bodies: map[string]funcInfo{}}
	if len(pkgs) > 0 {
		u.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					u.bodies[FuncKey(fn)] = funcInfo{pkg: pkg, decl: fd}
				}
			}
		}
	}
	u.computeFacts()
	return u
}

// HasBody reports whether fn's source is part of this unit (and its
// facts therefore authoritative rather than merely absent).
func (u *Unit) HasBody(fn *types.Func) bool {
	if u == nil || fn == nil {
		return false
	}
	_, ok := u.bodies[FuncKey(fn)]
	return ok
}

// computeFacts runs the per-function extractors to a fixpoint: facts
// are monotone (they only ever get set), so iteration terminates; the
// bound guards against a pathological unit.
func (u *Unit) computeFacts() {
	working := newFacts()
	for iter := 0; iter < 10; iter++ {
		changed := false
		for key, fi := range u.bodies {
			pass := u.passFor(fi.pkg, working)
			got := computeFuncFacts(pass, fi.decl)
			if !got.equal(working.funcs[key]) {
				working.set(key, got)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Production round trip: serialize per package, re-import into the
	// store the analyzers read.
	final := newFacts()
	for _, pkg := range u.Pkgs {
		data, err := working.ExportPackage(pkg.Path)
		if err != nil {
			continue // a package that fails to serialize simply has no facts
		}
		_ = final.ImportPackage(data)
	}
	u.Facts = final
}

// passFor builds the Pass the fact extractors run under (no analyzer,
// no diagnostics sink).
func (u *Unit) passFor(pkg *Package, facts *Facts) *Pass {
	return &Pass{
		Fset:         pkg.Fset,
		Files:        pkg.Files,
		IgnoredFiles: pkg.IgnoredFiles,
		Pkg:          pkg.Types,
		TypesInfo:    pkg.Info,
		Facts:        facts,
		unit:         u,
	}
}

// computeFuncFacts extracts one function's facts under the current
// (possibly still converging) store.
func computeFuncFacts(pass *Pass, fd *ast.FuncDecl) FuncFacts {
	var f FuncFacts
	f.InstallsRecover = hasRecoverDefer(fd.Body)
	f.CancelsParams = factCancelsParams(pass, fd)
	f.ReleaseResult, f.OKResult, f.ErrResult = factReleaseResult(pass, fd)
	f.SemaReleaseParams = factSemaReleaseParams(pass, fd)
	return f
}

// paramObjects maps every parameter (and the receiver) of fd to its
// 0-based parameter index; the receiver gets index -1.
func paramObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = -1
				}
			}
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return out
}

// rootIdentObj resolves the root identifier of a selector chain
// (`s.b.NextBucket` -> s) to its object.
func rootIdentObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// calleeFunc resolves a call's callee to a *types.Func (declared
// function or method; nil for builtins, conversions, and func values).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// factCancelsParams: context.CancelFunc parameters invoked or deferred
// on every path.
func factCancelsParams(pass *Pass, fd *ast.FuncDecl) []int {
	var out []int
	for obj, idx := range paramObjects(pass, fd) {
		if idx < 0 || !isCancelFuncType(obj.Type()) {
			continue
		}
		if dischargedOnAllPaths(pass, fd.Body, obj, func(call *ast.CallExpr) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && pass.TypesInfo.Uses[id] == obj
		}) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// isCancelFuncType reports whether t is context.CancelFunc (or an
// alias resolving to it).
func isCancelFuncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "CancelFunc" && named.Obj().Pkg().Path() == "context"
}

// factSemaReleaseParams: parameters on which release()/Release() is
// called on every path (the pure cross-function release helper).
func factSemaReleaseParams(pass *Pass, fd *ast.FuncDecl) []int {
	var out []int
	for obj, idx := range paramObjects(pass, fd) {
		if idx < 0 {
			continue
		}
		// Only parameters that actually get released somewhere are
		// candidates; dischargedOnAllPaths then checks path coverage.
		if !containsReleaseOn(pass, fd.Body, obj) {
			continue
		}
		if dischargedOnAllPaths(pass, fd.Body, obj, func(call *ast.CallExpr) bool {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !isReleaseName(sel.Sel.Name) {
				return false
			}
			return rootIdentObj(pass, sel.X) == obj
		}) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

func isReleaseName(name string) bool { return name == "release" || name == "Release" }

func containsReleaseOn(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			isReleaseName(sel.Sel.Name) && rootIdentObj(pass, sel.X) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// factReleaseResult: admit-style helpers — the body acquires a
// semaphore (a call to a method named acquire/Acquire, or to a helper
// that itself has the fact) and some return statement carries a func
// literal whose body releases one. The closure's result index, plus
// the companion bool/error results, become the caller's obligation
// shape.
func factReleaseResult(pass *Pass, fd *ast.FuncDecl) (release, okIdx, errIdx int) {
	if fd.Type.Results == nil {
		return 0, 0, 0
	}
	acquires := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "acquire" || sel.Sel.Name == "Acquire" {
				acquires = true
				return false
			}
		}
		if fn := calleeFunc(pass, call); fn != nil && pass.Facts.Of(fn).ReleaseResult > 0 {
			acquires = true
			return false
		}
		return true
	})
	if !acquires {
		return 0, 0, 0
	}
	// Flatten the result types to locate companions.
	var resultTypes []types.Type
	for _, field := range fd.Type.Results.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, tv.Type)
		}
	}
	for _, stmt := range returnStmts(fd.Body) {
		if len(stmt.Results) != len(resultTypes) {
			continue
		}
		for i, res := range stmt.Results {
			lit, ok := ast.Unparen(res).(*ast.FuncLit)
			if !ok || !funcLitReleases(lit) {
				continue
			}
			release = i + 1
			for j, t := range resultTypes {
				if j == i {
					continue
				}
				if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
					okIdx = j + 1
				}
				if isErrorType(t) {
					errIdx = j + 1
				}
			}
			return release, okIdx, errIdx
		}
	}
	return 0, 0, 0
}

func returnStmts(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are its own
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, ret)
		}
		return true
	})
	return out
}

// funcLitReleases reports whether the literal's body contains a call
// to a method named release/Release.
func funcLitReleases(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isReleaseName(sel.Sel.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// dischargedOnAllPaths runs the shared path walker over body with one
// pre-held obligation on obj, discharged by any call matching
// isDischarge; it reports whether every panic-free exit path has
// discharged it.
func dischargedOnAllPaths(pass *Pass, body *ast.BlockStmt, obj types.Object, isDischarge func(*ast.CallExpr) bool) bool {
	leaked := false
	scan := func(n ast.Node, held pathState) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && isDischarge(call) {
				delete(held, obj)
			}
			return true
		})
	}
	sim := &pathSim{
		pass:    pass,
		onStmt:  func(s ast.Stmt, held pathState) { scan(s, held) },
		onDefer: func(call *ast.CallExpr, held pathState) { scan(call, held) },
		onExpr:  func(e ast.Expr, held pathState) { scan(e, held) },
		onExit: func(ret *ast.ReturnStmt, pos token.Pos, held pathState) {
			if _, ok := held[obj]; ok {
				leaked = true
			}
		},
	}
	held := pathState{obj: &pathOb{info: &obInfo{}}}
	sim.walkBody(body, held)
	return !leaked
}
