package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"julienne/internal/gen"
)

// Each case here pins a loader bug found by the fuzz targets (or by
// auditing alongside them): inputs that previously panicked inside
// graph.NewCSR / the runtime, or silently produced a graph that breaks
// downstream algorithms. Every loader error must be a *ParseError
// wrapping exactly one of ErrCorrupt / ErrTruncated.

func requireTyped(t *testing.T, err error, wantKind error) {
	t.Helper()
	if err == nil {
		t.Fatal("error expected")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *ParseError", err, err)
	}
	if !errors.Is(err, wantKind) {
		t.Fatalf("error %v does not wrap %v", err, wantKind)
	}
	corrupt, truncated := errors.Is(err, ErrCorrupt), errors.Is(err, ErrTruncated)
	if corrupt == truncated {
		t.Fatalf("error %v must wrap exactly one of ErrCorrupt/ErrTruncated", err)
	}
}

func TestReadTextFirstOffsetNonzero(t *testing.T) {
	// Regression: a nonzero first offset previously flowed into
	// graph.NewCSR, which panicked with "malformed offsets".
	_, err := ReadText(strings.NewReader("AdjacencyGraph\n2\n1\n1\n1\n0\n"), false)
	requireTyped(t, err, ErrCorrupt)
}

func TestReadTextHugeHeaderNoAlloc(t *testing.T) {
	// Regression: a huge declared n previously hit
	// make([]uint64, n+1) and panicked with "makeslice: len out of
	// range" (or forced an enormous allocation) before any data was
	// validated.
	for _, in := range []string{
		"AdjacencyGraph\n9223372036854775807\n0\n",
		"AdjacencyGraph\n1\n9223372036854775807\n0\n",
		"AdjacencyGraph\n99999999999999\n3\n",
	} {
		_, err := ReadText(strings.NewReader(in), false)
		requireTyped(t, err, ErrCorrupt)
	}
}

func TestReadTextEdgesWithoutVertices(t *testing.T) {
	_, err := ReadText(strings.NewReader("AdjacencyGraph\n0\n3\n"), false)
	requireTyped(t, err, ErrCorrupt)
}

func TestReadTextNegativeWeight(t *testing.T) {
	// Regression: negative weights parsed fine and later wrapped the
	// unsigned distance arithmetic in sssp (uint64(w) on int32 -5).
	_, err := ReadText(strings.NewReader("WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n-5\n"), false)
	requireTyped(t, err, ErrCorrupt)
}

func TestReadTextTruncated(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header only":  "AdjacencyGraph\n",
		"mid offsets":  "AdjacencyGraph\n4\n2\n0\n1\n",
		"mid edges":    "AdjacencyGraph\n2\n2\n0\n1\n0\n",
		"mid weights":  "WeightedAdjacencyGraph\n2\n2\n0\n1\n0\n1\n3\n",
		"no edge data": "AdjacencyGraph\n2\n1\n0\n1\n",
	}
	for name, in := range cases {
		_, err := ReadText(strings.NewReader(in), false)
		if err == nil {
			t.Fatalf("%s: error expected", name)
		}
		requireTyped(t, err, ErrTruncated)
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.LogWeights(gen.Grid2D(4, 4), 1)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail with a typed truncation error —
	// never a panic, never a silently short graph.
	for _, cut := range []int{0, 4, 39, 40, 41, len(full) / 2, len(full) - 1} {
		_, err := ReadBinary(bytes.NewReader(full[:cut]))
		requireTyped(t, err, ErrTruncated)
	}
	if _, err := ReadBinary(bytes.NewReader(full)); err != nil {
		t.Fatalf("full input must load: %v", err)
	}
}

func TestReadBinaryNegativeWeight(t *testing.T) {
	g := gen.LogWeights(gen.Grid2D(3, 3), 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The weight block is the last m int32s; force a sign bit.
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], 0x80000001)
	_, err := ReadBinary(bytes.NewReader(raw))
	requireTyped(t, err, ErrCorrupt)
}

func TestReadBinaryCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Grid2D(3, 3)); err != nil {
		t.Fatal(err)
	}
	mangle := func(f func(raw []byte)) error {
		raw := append([]byte(nil), buf.Bytes()...)
		f(raw)
		_, err := ReadBinary(bytes.NewReader(raw))
		return err
	}
	requireTyped(t, mangle(func(raw []byte) { raw[0] ^= 0xff }), ErrCorrupt)   // magic
	requireTyped(t, mangle(func(raw []byte) { raw[8] = 99 }), ErrCorrupt)      // version
	requireTyped(t, mangle(func(raw []byte) { raw[31] = 0xff }), ErrCorrupt)   // absurd n
	requireTyped(t, mangle(func(raw []byte) { raw[5*8] ^= 0x01 }), ErrCorrupt) // first offset
}
