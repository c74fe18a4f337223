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
// A tuple carved from a block is immutable and, by default, the caller's
// to keep for as long as it likes, which is the rule exec.Operator
// states; what keeping one costs is its block, which the garbage
// collector frees only when nothing carved from it is reachable. The one
// exception is a lender, whose consumer has promised to keep none of its
// tuples past its next call: it hands its Values block back through
// Recycle, page after page. String blocks are written once and never
// recycled, so a string taken from a lent tuple stays good.
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

// Recycle makes block — Values carved from this arena, whose tuples the
// caller has cleared and nobody holds any more — the block the next
// tuples are carved from, from its start, and returns it. used is how many
// Values the caller expects them to take: a lent scan passes how many
// were carved since the last Recycle, a scanner re-aimed at a file how
// many that file's tuples hold. When that is more than block holds, a new
// block takes its place, twice as large or of used Values, whichever is
// more. A nil block starts the first.
//
// The clearing is the caller's, tuple by tuple, because it knows every
// tuple it handed out, including those carved before the first Recycle or
// past the end of block: one kept against the promise then reads NULLs or
// another row's values, a wrong answer a differential test catches,
// never its own values gone quietly stale. It also leaves the strings
// they pointed at to the garbage collector. The promise spans a page of
// a lent scan, or a file of a scanner re-aimed at the next, as a spilled
// join reads its build partitions.
func (a *Arena) Recycle(block []Value, used int) []Value {
	if used > len(block) {
		block = make([]Value, max(used, 2*len(block)))
	}
	a.vals = block
	return block
}

// Concat returns a tuple holding l's values followed by r's: a join's
// output row.
func (a *Arena) Concat(l, r Tuple) Tuple {
	t := a.New(len(l)+len(r), 0)
	copy(t[copy(t, l):], r)
	return t
}

// Materialize builds a new tuple from record b, whose shape s is: one
// value per entry of cols — column cols[k] at position k — so a scan that
// emits four columns of sixteen reads and carves four values, not
// sixteen; a nil cols is every column. Strings are copied into the
// arena's block. A cols entry the record does not have — it is narrower
// than the projection — is an error, and so is a column whose bytes do
// not lie inside b. left is New's.
func (a *Arena) Materialize(b []byte, s *Shape, cols []int, left int) (Tuple, error) {
	all := s.columns()
	n := len(cols)
	if cols == nil {
		n = len(all)
	}
	t := a.New(n, left)
	for k := range t {
		i := k
		if cols != nil {
			if i = cols[k]; i >= len(all) {
				return nil, fmt.Errorf("types: tuple has %d columns, projection wants column %d", len(all), i)
			}
		}
		// View's switch, with a VARCHAR's bytes copied into the string
		// block and a fixed-width slot read in line: a full-width decode
		// is this loop.
		switch c := all[i]; c.kind {
		case KindNull:
			t[k] = Value{}
		case KindString:
			lo, hi, err := s.span(b, c, i)
			if err != nil {
				return nil, err
			}
			t[k] = a.str(b[lo:hi])
		default:
			if int(c.slot)+8 > len(b) {
				return nil, truncated(c, i)
			}
			t[k] = Value{kind: c.kind, w: binary.LittleEndian.Uint64(b[c.slot:])}
		}
	}
	return t, nil
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
