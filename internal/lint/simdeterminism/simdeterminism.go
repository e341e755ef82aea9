// Package simdeterminism enforces the virtual-time core's determinism.
//
// The simulator's golden cycle-fingerprint tests assume that a run is a
// pure function of its configuration and seeds: cycle charges never
// depend on the wall clock, on process-global randomness, or on Go's
// randomized map iteration order. Packages that participate in cycle
// accounting opt in with an //eleos:deterministic package-doc
// directive; in those packages the analyzer flags
//
//   - wall-clock reads and timers (time.Now, time.Since, time.Sleep,
//     time.After, tickers, …) — virtual time comes from the cycles
//     package, never from the host ["wallclock"];
//   - the process-global math/rand (and math/rand/v2) top-level
//     functions, which are unseeded and shared — deterministic code
//     draws from an explicitly seeded *rand.Rand ["globalrand"];
//   - range over a map, unless the loop body is order-insensitive
//     (commutative accumulation only) or the loop merely collects keys
//     that a later statement in the same block sorts ["maprange"].
//
// A finding on a deliberate exception (e.g. an order-insensitive map
// range the analyzer cannot prove so) is suppressed with
// "//eleos:allow CHECK -- reason".
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"eleos/internal/lint/analysis"
	"eleos/internal/lint/directive"
)

// Analyzer is the simdeterminism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global rand and unsorted map ranges in cycle-charged packages",
	Run:  run,
}

// wallClockFuncs are the time-package functions that read or schedule
// against the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand(/v2) top-level functions that
// build explicitly seeded generators; everything else at package level
// draws from the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !directive.ForPackage(pass.Pkg.Files).Deterministic {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, info, n)
			case *ast.BlockStmt:
				checkStmtList(pass, info, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, info, n.Body)
			case *ast.CommClause:
				checkStmtList(pass, info, n.Body)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr) {
	fn := analysis.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !isMethod && wallClockFuncs[fn.Name()] {
			pass.Report(call.Pos(), "wallclock",
				"call to time.%s in deterministic package %s; simulated time comes from the cycles package",
				fn.Name(), pass.Pkg.Types.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand / *rand.Zipf are fine: those values
		// exist only via the explicitly seeded constructors.
		if !isMethod && !randConstructors[fn.Name()] {
			pass.Report(call.Pos(), "globalrand",
				"call to the process-global rand.%s in deterministic package %s; use an explicitly seeded *rand.Rand",
				fn.Name(), pass.Pkg.Types.Name())
		}
	}
}

// checkStmtList examines each range-over-map loop in a statement list,
// with access to the loop's later siblings for the collect-then-sort
// pattern.
func checkStmtList(pass *analysis.Pass, info *types.Info, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := info.Types[rs.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		if orderInsensitive(info, rs.Body.List) {
			continue
		}
		if keyCollectThenSort(info, rs, stmts[i+1:]) {
			continue
		}
		pass.Report(rs.For, "maprange",
			"range over map with order-sensitive body in deterministic package %s; sort the keys first or make the body commutative",
			pass.Pkg.Types.Name())
	}
}

// orderInsensitive reports whether executing the statements once per
// map entry yields the same state for every iteration order. Only a
// conservative core is accepted: commutative compound assignments,
// inc/dec, continue, and if-statements whose branches are themselves
// order-insensitive. Any function call (other than builtins) or plain
// assignment disqualifies the body — `if v > max { best = k }` keeps
// whichever tied key the iteration met first.
func orderInsensitive(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
				// commutative accumulation
			default:
				return false
			}
			if hasNonBuiltinCall(info, s) {
				return false
			}
		case *ast.IncDecStmt:
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || hasNonBuiltinCall(info, s.Cond) {
				return false
			}
			if !orderInsensitive(info, s.Body.List) {
				return false
			}
			if s.Else != nil {
				eb, ok := s.Else.(*ast.BlockStmt)
				if !ok || !orderInsensitive(info, eb.List) {
					return false
				}
			}
		case *ast.EmptyStmt:
		default:
			return false
		}
	}
	return true
}

// hasNonBuiltinCall reports whether n contains a call that is not a
// builtin like len or cap.
func hasNonBuiltinCall(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				return true
			}
			if _, conv := info.Uses[id].(*types.TypeName); conv {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

// keyCollectThenSort recognizes the sanctioned pattern
//
//	for k := range m { keys = append(keys, k) }
//	...
//	sort.Slice(keys, ...)   // or any sort./slices. call taking keys
//
// where the sort happens in a later statement of the same block.
func keyCollectThenSort(info *types.Info, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dest, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	if arg, ok := call.Args[0].(*ast.Ident); !ok || arg.Name != dest.Name {
		return false
	}
	destObj := objectOf(info, dest)
	if destObj == nil {
		return false
	}
	for _, s := range rest {
		if sortsIdent(info, s, destObj) {
			return true
		}
	}
	return false
}

// sortsIdent reports whether stmt contains a call into package sort or
// slices with obj among its arguments.
func sortsIdent(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.StaticCallee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && objectOf(info, id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
