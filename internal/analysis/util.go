package analysis

import "strings"

// pkgPathEndsWith reports whether the import path's final segment (or
// trailing segments) equal suffix — "julienne/internal/parallel" ends
// with "parallel" and with "internal/parallel". Matching on the tail
// keeps the analyzers working both on the real module paths and on the
// GOPATH-style fixture paths under testdata/src.
func pkgPathEndsWith(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
