package types

import "unsafe"

// Block sizes. A full block is 16 KiB, which the Go allocator still
// serves from a size class (a small object, no page-granular rounding);
// blockValues follows from the size of a Value. An arena that is not told
// how much is coming starts at the minimum and doubles, so a statement
// that mints three tuples does not pay for six hundred.
const (
	blockSize   = 16 << 10
	blockValues = blockSize / int(unsafe.Sizeof(Value{}))
	minValues   = 16
	minBytes    = 256
	// A string at least this long is allocated on its own rather than
	// ending the current block early.
	ownBytes = blockSize / 4
)

// Arena is the engine's tuple allocator: every operator that mints tuples
// — a scan decoding records, a join concatenating its inputs, a
// projection — carves them from one. It holds the unused remainder of two
// blocks, one of Values and one of string bytes, hands out consecutive
// pieces, and allocates a fresh block when one runs out.
//
// A block is written once, front to back, and never rewritten or
// recycled: a tuple carved from it is immutable and the caller's to keep
// for as long as it likes, which is the rule exec.Operator states. What
// keeping one costs is its block: the garbage collector frees a block
// only when no tuple (or string) carved from it is reachable any more.
//
// The zero Arena is ready to use. An Arena is not safe for concurrent
// use; each operator instance owns its own.
type Arena struct {
	vals  []Value
	bytes []byte
	// Sizes of the last blocks allocated without a bound from the
	// caller: the next such block is twice as large, up to a full block.
	lastVals, lastBytes int
}

// New returns a tuple of width NULLs. left bounds how many more tuples of
// this width the caller may ask for (a scan knows how many slots remain
// on its page): a new block is sized for that many at most, so a one-page
// table does not pay for a full block. Zero means the caller cannot
// tell, and blocks grow geometrically instead.
func (a *Arena) New(width, left int) Tuple {
	if len(a.vals) < width {
		n := min(width*left, blockValues)
		if left <= 0 {
			a.lastVals = min(max(2*a.lastVals, minValues), blockValues)
			n = a.lastVals
		}
		a.vals = make([]Value, max(width, n))
	}
	t := a.vals[:width:width]
	a.vals = a.vals[width:]
	return t
}

// Concat returns a tuple holding l's values followed by r's: a join's
// output row.
func (a *Arena) Concat(l, r Tuple) Tuple {
	t := a.New(len(l)+len(r), 0)
	copy(t[copy(t, l):], r)
	return t
}

// Decode parses the encoded tuple at the front of b into a new tuple
// holding one value per entry of cols — column cols[k] at position k —
// so a scan that emits four columns of sixteen carves four values, not
// sixteen. The bytes of unwanted columns are skipped without being
// looked at and the walk stops after the last wanted one. A nil cols is
// every column. A record with fewer columns than cols names is an error.
// left is New's.
func (a *Arena) Decode(b []byte, cols []int, left int) (Tuple, error) {
	width := len(cols)
	if cols == nil {
		var err error
		if width, err = TupleWidth(b); err != nil {
			return nil, err
		}
	}
	t := a.New(width, left)
	if _, err := a.decode(t, b, cols, true); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeColumns parses the encoded tuple at the front of b into dst,
// whose length must be the tuple's TupleWidth, and returns the number of
// bytes walked. A nil cols decodes every column; otherwise cols lists, in
// ascending order, the only ordinals to materialise, each at its own
// ordinal in dst: the rest of dst is left untouched, the bytes of
// unwanted columns are skipped without being looked at, and the walk
// stops after the last wanted column. Page scans use that to test a
// predicate on its own columns, in a scratch tuple they reuse, before
// paying for the whole record. Only the strings are the arena's.
func (a *Arena) DecodeColumns(dst Tuple, b []byte, cols []int) (int, error) {
	return a.decode(dst, b, cols, false)
}

// str returns a VARCHAR holding a copy of src in the string block.
func (a *Arena) str(src []byte) Value {
	n := len(src)
	if n == 0 {
		return Value{kind: KindString}
	}
	dst := a.bytes
	switch {
	case n <= len(dst):
		a.bytes = dst[n:]
	case n >= ownBytes:
		dst = make([]byte, n)
	default:
		a.lastBytes = min(max(2*a.lastBytes, minBytes), blockSize)
		dst = make([]byte, max(n, a.lastBytes))
		a.bytes = dst[n:]
	}
	copy(dst, src)
	return Value{kind: KindString, p: &dst[0], w: uint64(n)}
}
