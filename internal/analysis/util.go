package analysis

import (
	"go/types"
	"strings"
)

// pkgPathEndsWith reports whether the import path's final segment (or
// trailing segments) equal suffix — "julienne/internal/parallel" ends
// with "parallel" and with "internal/parallel". Matching on the tail
// keeps the analyzers working both on the real module paths and on the
// GOPATH-style fixture paths under testdata/src.
func pkgPathEndsWith(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// intsContain reports membership in a small sorted fact slice.
func intsContain(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// paramIndexFor maps an argument position to the callee's parameter
// index, clamping variadic tails onto the final parameter.
func paramIndexFor(fn *types.Func, argIdx int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return argIdx
	}
	n := sig.Params().Len()
	if sig.Variadic() && argIdx >= n-1 {
		return n - 1
	}
	if argIdx >= n {
		return n - 1
	}
	return argIdx
}
