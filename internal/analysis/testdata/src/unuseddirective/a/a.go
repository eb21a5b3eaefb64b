// Fixture for the unuseddirective driver check: the first directive
// suppresses a live norandtime finding and is kept; the second
// suppresses nothing; the third names an analyzer that does not exist.
// The driver tests in analyzers_test.go pin the expected diagnostics
// directly (want comments only cover analyzer diagnostics).
package a

import "time"

func now() int64 {
	//lint:ignore julvet/norandtime fixture pins a live suppression
	return time.Now().UnixNano()
}

//lint:ignore julvet/norandtime stale: nothing below trips the analyzer
func pure() int {
	return 4
}

//lint:ignore julvet/nosuchanalyzer typo in the analyzer name
func other() int {
	return 5
}
