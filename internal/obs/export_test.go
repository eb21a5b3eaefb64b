package obs

// Handles exposes the names.go handle table to the external test
// package (names_test.go imports the algo packages, which import obs).
func Handles() ([]Counter, []Gauge, []Hist) { return counters, gauges, hists }

// PromName exposes the dotted-name → Prometheus-name mapping.
var PromName = promName
