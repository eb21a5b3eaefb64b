package graphio

import (
	"errors"
	"fmt"
	"io"
)

// Load failures are typed so callers (the serving layer, CLIs, tests)
// can react without string matching:
//
//   - errors.Is(err, ErrTruncated): the stream ended before the data
//     its header declared — the file was cut short mid-write or
//     mid-copy. Retrying after the producer finishes can succeed.
//   - errors.Is(err, ErrCorrupt): the bytes are structurally invalid
//     (bad header, out-of-range ids, non-monotone offsets, negative
//     weights). Retrying cannot help.
//
// Every loader in this package returns a *ParseError wrapping exactly
// one of the two sentinels. Loaders never panic on hostile input and
// never return a silently short or internally inconsistent graph.

var (
	// ErrCorrupt marks structurally invalid input.
	ErrCorrupt = errors.New("corrupt graph input")
	// ErrTruncated marks input that ended before its declared data.
	ErrTruncated = errors.New("truncated graph input")
)

// ParseError reports which loader failed, why, and with which
// underlying cause (when an io or strconv error triggered it).
type ParseError struct {
	// Format is the loader that failed: "text" or "binary".
	Format string
	// Detail is a human-readable description of the violation.
	Detail string
	// Kind is ErrCorrupt or ErrTruncated.
	Kind error
	// Cause is the underlying io/parse error, when one exists.
	Cause error
}

func (e *ParseError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("graphio: %s: %s: %v", e.Format, e.Detail, e.Cause)
	}
	return fmt.Sprintf("graphio: %s: %s", e.Format, e.Detail)
}

// Unwrap exposes the kind sentinel (and the cause, when present) to
// errors.Is/As.
func (e *ParseError) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Kind, e.Cause}
	}
	return []error{e.Kind}
}

// corrupt builds an ErrCorrupt ParseError.
func corrupt(format, detailFmt string, args ...any) error {
	return &ParseError{Format: format, Detail: fmt.Sprintf(detailFmt, args...), Kind: ErrCorrupt}
}

// truncatedf builds an ErrTruncated ParseError.
func truncatedf(format, detailFmt string, args ...any) error {
	return &ParseError{Format: format, Detail: fmt.Sprintf(detailFmt, args...), Kind: ErrTruncated}
}

// ioError classifies an error bubbling up from the byte layer: EOF
// variants mean the stream ran dry (truncated); anything else (scanner
// token overflow, a failing reader) is treated as corruption.
func ioError(format, detail string, cause error) error {
	kind := ErrCorrupt
	if errors.Is(cause, io.EOF) || errors.Is(cause, io.ErrUnexpectedEOF) {
		kind = ErrTruncated
	}
	return &ParseError{Format: format, Detail: detail, Kind: kind, Cause: cause}
}
