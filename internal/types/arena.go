package types

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

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

// Materialize builds a new tuple from the columns LocateColumns found in
// b: one value per entry of cols — column cols[k] at position k — so a
// scan that emits four columns of sixteen carves four values, not
// sixteen; a nil cols is every located column. Strings are copied into
// the arena's block. A cols entry that was not located — the record is
// narrower than the projection — is an error. left is New's.
func (a *Arena) Materialize(b []byte, offs, cols []int, left int) (Tuple, error) {
	n := len(offs) - 1
	if cols == nil {
		t := a.New(n, left)
		for i := range t {
			t[i] = a.value(b, offs[i])
		}
		return t, nil
	}
	t := a.New(len(cols), left)
	for k, c := range cols {
		if c >= n {
			return nil, fmt.Errorf("types: tuple has %d columns, projection wants column %d", n, c)
		}
		t[k] = a.value(b, offs[c])
	}
	return t, nil
}

// value is View with a VARCHAR's bytes copied into the string block —
// its own switch, not View and then a copy: a full-width decode is this
// function per column, and the detour through View's Value measured 8 %
// on BenchmarkHeapScan/all.
func (a *Arena) value(b []byte, off int) Value {
	switch kind := Kind(b[off]); kind {
	case KindNull:
		return Value{}
	case KindString:
		n := int(binary.LittleEndian.Uint32(b[off+1:]))
		return a.str(b[off+5 : off+5+n])
	default:
		return Value{kind: kind, w: binary.LittleEndian.Uint64(b[off+1:])}
	}
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
