package analysis

import (
	"go/ast"
	"strconv"
)

// searchCounterFields mirrors the counter fields of core.Result (and the
// per-expansion tallies feeding them). The search engine's determinism
// story requires that these are mutated only in the single-threaded merge
// phase — anything executing candidates off the search goroutine may write
// disjoint result slots and nothing else — so the counts come out identical
// under every execution strategy. Kept as a
// literal copy so this package stays free of a core dependency; a test in
// internal/core asserts the field set matches core.Result.
var searchCounterFields = map[string]bool{
	"Queries":          true,
	"Expanded":         true,
	"InvalidRejected":  true,
	"InvalidDuplicate": true,
	"InvalidTimeout":   true,
}

var analyzerSearchMerge = &Analyzer{
	Name: "searchmerge",
	Doc: "enforces the search engine's merge-phase discipline in internal/core: " +
		"search counters (Queries, Expanded, Invalid*) may only be mutated by the " +
		"single-threaded merge loop, never inside a spawned goroutine, and the " +
		"package must not import sync/atomic at all — atomics on the counters " +
		"would make totals scheduling-independent but lose the per-candidate " +
		"attribution that keeps every execution strategy's tables byte-identical",
	Go: runSearchMerge,
}

func runSearchMerge(pkg *GoPackage) []Finding {
	// The discipline is a contract of the search engine package only.
	if pkg.Dir != "internal/core" {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, imp := range f.AST.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "sync/atomic" {
				out = append(out, Finding{
					Analyzer: "searchmerge", File: f.Name, Line: pkg.line(imp),
					Message: "internal/core imports sync/atomic; search counters must be merged " +
						"single-threaded in candidate order, not accumulated atomically",
				})
			}
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, searchMergeGoroutine(pkg, f, lit)...)
			}
			return true
		})
	}
	return out
}

// searchMergeGoroutine flags counter mutations lexically inside one spawned
// goroutine body. Function literals called synchronously within the body
// still run on the worker, so the walk descends into them; nested go
// statements are skipped here because the outer walk reports them itself.
func searchMergeGoroutine(pkg *GoPackage, f *GoFile, lit *ast.FuncLit) []Finding {
	var out []Finding
	report := func(n ast.Node, field string) {
		out = append(out, Finding{
			Analyzer: "searchmerge", File: f.Name, Line: pkg.line(n),
			Message: "search counter " + field + " mutated inside a goroutine; workers must " +
				"only fill their result slot — merge counters single-threaded in candidate order",
		})
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.IncDecStmt:
			if field := searchCounterSelector(v.X); field != "" {
				report(v, field)
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if field := searchCounterSelector(lhs); field != "" {
					report(v, field)
				}
			}
		}
		return true
	})
	return out
}

// searchCounterSelector returns the counter field name when e is a selector
// of one (res.Queries, r.InvalidTimeout, ...). Without type information any
// selector with a matching field name matches; inside internal/core those
// names are used for nothing else, and a false positive is suppressible.
func searchCounterSelector(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !searchCounterFields[sel.Sel.Name] {
		return ""
	}
	return sel.Sel.Name
}
