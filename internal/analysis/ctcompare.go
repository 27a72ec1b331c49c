package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctcompareRule is the constant-time-comparison taint rule. Byte strings
// that carry authenticator material — MAC tags, chain states, watermark
// fields, anything produced by the mac package — must never reach a
// variable-time comparison (bytes.Equal, bytes.Compare, or an ==/!= that
// got there through a string conversion) against attacker-influenced
// input. ERASMUS's verifier compares prover-supplied bytes against
// recomputed secrets; an early-exit comparison leaks, byte by byte, how
// much of a forged tag is right (the classic MAC timing oracle). The
// repo's trusted comparator is mac.ConstantTimeEqual.
//
// Taint is tracked flow-sensitively per function with the dataflow
// engine (assignments propagate it, reassignment kills it), and
// interprocedurally: an argument tainted at any call site taints the
// callee's parameter, to a fixpoint over the call graph — so a helper
// that receives a chain state still may not bytes.Equal it.
//
// Sources, deliberately narrow: []byte fields named MAC, Chain, State,
// AggMAC, or AggState on module types; the Hash and MAC fields of a type
// named Watermark; and []byte results of the module's mac package.
// Record.Hash is NOT a source — golden-hash membership checks are
// content addressing, not authentication, and stay on bytes.Equal.
var ctcompareRule = &Rule{
	Name:      "ctcompare",
	Doc:       "MAC, chain-state, and watermark bytes must be compared with mac.ConstantTimeEqual, never bytes.Equal or ==",
	AppliesTo: func(string) bool { return true },
	Tests:     true,
	RunModule: runCtcompare,
}

// taintedFieldNames are the field names that carry authenticator bytes
// on module types.
var taintedFieldNames = map[string]bool{
	"MAC": true, "Chain": true, "State": true, "AggMAC": true, "AggState": true,
}

// taintFact maps a tainted variable to a human-readable origin ("rec.MAC",
// "mac.Sum result"). Treated as immutable; transfer copies on write.
type taintFact map[*types.Var]string

func runCtcompare(mp *ModulePass) {
	ct := &ctAnalysis{mp: mp, paramTaint: make(map[*types.Var]string)}

	// Interprocedural fixpoint: run every function's taint flow, record
	// which parameters receive tainted arguments, repeat until no new
	// parameter taints appear. The module is small enough that the
	// whole-module re-run converges in two or three rounds.
	for {
		ct.changed = false
		ct.eachFunc(func(pkg *Package, name string, body *ast.BlockStmt) {
			ct.runFunc(pkg, body, nil)
		})
		if !ct.changed {
			break
		}
	}

	// Reporting pass, scoped by AppliesTo and the Tests opt-in.
	ct.eachFunc(func(pkg *Package, name string, body *ast.BlockStmt) {
		if !mp.InScope(pkg) {
			return
		}
		ct.runFunc(pkg, body, func(pos token.Pos, operand, origin string) {
			mp.Reportf(pos,
				"variable-time comparison of authenticator bytes %s (tainted by %s); use mac.ConstantTimeEqual",
				operand, origin)
		})
	})
}

type ctAnalysis struct {
	mp         *ModulePass
	paramTaint map[*types.Var]string
	changed    bool
}

// eachFunc visits every declared function body and every function
// literal (analyzed standalone) in the loaded packages.
func (ct *ctAnalysis) eachFunc(visit func(pkg *Package, name string, body *ast.BlockStmt)) {
	for _, pkg := range ct.mp.Pkgs {
		for _, f := range ct.mp.FilesOf(pkg) {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				visit(pkg, fd.Name.Name, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						visit(pkg, fd.Name.Name+" literal", lit.Body)
					}
					return true
				})
			}
		}
	}
}

// runFunc runs the taint dataflow over one function body. With report
// set it flags tainted operands reaching comparison sinks; it always
// records parameter taint at module-internal call sites.
func (ct *ctAnalysis) runFunc(pkg *Package, body *ast.BlockStmt, report func(pos token.Pos, operand, origin string)) {
	flow := ct.flow(pkg)
	g := BuildCFG(body)
	facts := Forward(g, flow)
	for _, blk := range g.Blocks {
		bf, reachable := facts[blk]
		if !reachable {
			continue
		}
		EachNodeFact(blk, bf, flow, func(n ast.Node, before Fact) {
			f := before.(taintFact)
			inlineInspect(n, func(m ast.Node) {
				switch s := m.(type) {
				case *ast.CallExpr:
					ct.recordCallTaint(pkg, s, f)
					if report != nil {
						ct.checkCallSink(pkg, s, f, report)
					}
				case *ast.BinaryExpr:
					if report != nil {
						ct.checkCompareSink(pkg, s, f, report)
					}
				}
			})
		})
	}
}

// flow builds the per-function taint analysis: entry taints parameters
// the interprocedural fixpoint has marked, assignments propagate or kill.
func (ct *ctAnalysis) flow(pkg *Package) FlowAnalysis {
	return FlowAnalysis{
		Entry: func() Fact {
			// Parameter taint is looked up lazily at identifier use, so
			// entry starts empty; see exprTaint's paramTaint fallback.
			return taintFact{}
		},
		Transfer: func(n ast.Node, in Fact) Fact {
			f := in.(taintFact)
			switch s := n.(type) {
			case *ast.AssignStmt:
				return ct.transferAssign(pkg, s, f)
			case *ast.DeclStmt:
				if gd, ok := s.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							f = ct.transferSpec(pkg, vs, f)
						}
					}
				}
			}
			return f
		},
		Join: func(a, b Fact) Fact {
			x, y := a.(taintFact), b.(taintFact)
			j := make(taintFact, len(x)+len(y))
			for v, o := range x {
				j[v] = o
			}
			for v, o := range y {
				if prev, ok := j[v]; !ok || o < prev {
					j[v] = o
				}
			}
			return j
		},
		Equal: func(a, b Fact) bool {
			x, y := a.(taintFact), b.(taintFact)
			if len(x) != len(y) {
				return false
			}
			for v, o := range x {
				if yo, ok := y[v]; !ok || yo != o {
					return false
				}
			}
			return true
		},
	}
}

func (ct *ctAnalysis) transferAssign(pkg *Package, s *ast.AssignStmt, f taintFact) taintFact {
	out := f
	copied := false
	set := func(e ast.Expr, origin string, tainted bool) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v := objVar(pkg, id)
		if v == nil {
			return
		}
		if !copied {
			out = cloneTaint(f)
			copied = true
		}
		if tainted {
			out[v] = origin
		} else {
			delete(out, v)
		}
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Multi-return call: taint every byte-ish result if the call is
		// itself a source (mac.Sum-style); otherwise kill all targets.
		origin, tainted := ct.exprTaint(pkg, s.Rhs[0], f)
		for _, lhs := range s.Lhs {
			set(lhs, origin, tainted)
		}
		return out
	}
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		origin, tainted := ct.exprTaint(pkg, rhs, f)
		set(s.Lhs[i], origin, tainted)
	}
	return out
}

func (ct *ctAnalysis) transferSpec(pkg *Package, vs *ast.ValueSpec, f taintFact) taintFact {
	out := f
	copied := false
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		origin, tainted := ct.exprTaint(pkg, vs.Values[i], f)
		if !tainted {
			continue
		}
		v := objVar(pkg, name)
		if v == nil {
			continue
		}
		if !copied {
			out = cloneTaint(f)
			copied = true
		}
		out[v] = origin
	}
	return out
}

func cloneTaint(f taintFact) taintFact {
	c := make(taintFact, len(f))
	for v, o := range f {
		c[v] = o
	}
	return c
}

func objVar(pkg *Package, id *ast.Ident) *types.Var {
	if obj := pkg.TypesInfo.Defs[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	v, _ := pkg.TypesInfo.Uses[id].(*types.Var)
	return v
}

// exprTaint reports whether e carries authenticator bytes, and a short
// origin description for the diagnostic.
func (ct *ctAnalysis) exprTaint(pkg *Package, e ast.Expr, f taintFact) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := objVar(pkg, x); v != nil {
			if o, ok := f[v]; ok {
				return o, true
			}
			if o, ok := ct.paramTaint[v]; ok {
				return o, true
			}
		}
	case *ast.SelectorExpr:
		if ct.isTaintedField(pkg, x) {
			return types.ExprString(x), true
		}
	case *ast.CallExpr:
		// Conversions (string(x), []byte(x)) pass taint through.
		if tv, ok := pkg.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return ct.exprTaint(pkg, x.Args[0], f)
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && pkg.TypesInfo.Uses[id] == types.Universe.Lookup("append") {
			for _, arg := range x.Args {
				if o, ok := ct.exprTaint(pkg, arg, f); ok {
					return o, true
				}
			}
			return "", false
		}
		if fn := calleeOf(pkg, x); fn != nil && ct.isMACSource(fn) {
			return "mac." + fn.Name() + " result", true
		}
	case *ast.SliceExpr:
		return ct.exprTaint(pkg, x.X, f)
	case *ast.BinaryExpr:
		if x.Op == token.ADD { // string concatenation
			if o, ok := ct.exprTaint(pkg, x.X, f); ok {
				return o, true
			}
			return ct.exprTaint(pkg, x.Y, f)
		}
	}
	return "", false
}

// isTaintedField reports whether sel selects an authenticator field of
// an in-analysis type: MAC/Chain/State/AggMAC/AggState []byte fields, or
// Hash/MAC on a type named Watermark.
func (ct *ctAnalysis) isTaintedField(pkg *Package, sel *ast.SelectorExpr) bool {
	obj, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil || !ct.mp.InModule(obj.Pkg().Path()) {
		return false
	}
	if !isByteSlice(obj.Type()) {
		return false
	}
	if taintedFieldNames[obj.Name()] {
		return true
	}
	if obj.Name() != "Hash" {
		return false
	}
	// Hash is a source only on Watermark: a watermark's hash is part of
	// the trusted anchor a prover tries to forge. Record.Hash stays
	// comparable — golden-image membership is content addressing.
	tv, ok := pkg.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Watermark"
}

// isMACSource reports whether fn is a module mac-package function or
// method (a keyed mac.Context's AppendSum, say) whose result carries
// key-derived bytes. Unkeyed digest helpers (Hash*) are
// not sources: an attacker can compute those themselves, so comparing
// them early-exit leaks nothing — they are content addresses, and the
// golden-image membership checks depend on comparing them freely.
func (ct *ctAnalysis) isMACSource(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || !strings.HasSuffix(pkg.Path(), "/internal/crypto/mac") || !ct.mp.InModule(pkg.Path()) {
		return false
	}
	if strings.HasPrefix(fn.Name(), "Hash") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isByteSlice(sig.Results().At(0).Type())
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// recordCallTaint marks callee parameters fed by tainted arguments — the
// interprocedural half of the analysis.
func (ct *ctAnalysis) recordCallTaint(pkg *Package, call *ast.CallExpr, f taintFact) {
	fn := calleeOf(pkg, call)
	if fn == nil || ct.mp.CallGraph().Node(fn) == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		origin, tainted := ct.exprTaint(pkg, arg, f)
		if !tainted {
			continue
		}
		pi := i
		if pi >= params.Len() {
			if !sig.Variadic() {
				continue
			}
			pi = params.Len() - 1
		}
		p := params.At(pi)
		if prev, seen := ct.paramTaint[p]; !seen || origin < prev {
			if !seen || origin != prev {
				ct.changed = true
			}
			ct.paramTaint[p] = origin
		}
	}
}

// checkCallSink flags bytes.Equal / bytes.Compare with a tainted operand.
func (ct *ctAnalysis) checkCallSink(pkg *Package, call *ast.CallExpr, f taintFact, report func(token.Pos, string, string)) {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "bytes" {
		return
	}
	if fn.Name() != "Equal" && fn.Name() != "Compare" {
		return
	}
	for _, arg := range call.Args {
		if origin, tainted := ct.exprTaint(pkg, arg, f); tainted {
			report(call.Pos(), "in bytes."+fn.Name(), origin)
			return
		}
	}
}

// checkCompareSink flags ==/!= with a tainted operand (reached through a
// string conversion or a string-typed variable; nil checks are fine).
func (ct *ctAnalysis) checkCompareSink(pkg *Package, bin *ast.BinaryExpr, f taintFact, report func(token.Pos, string, string)) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if isNilExpr(pkg, bin.X) || isNilExpr(pkg, bin.Y) {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if origin, tainted := ct.exprTaint(pkg, side, f); tainted {
			report(bin.Pos(), "with "+bin.Op.String(), origin)
			return
		}
	}
}

func isNilExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
