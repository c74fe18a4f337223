package types

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Tuple wire format, used by heap pages and temp files:
//
//	u16 column count
//	per column: u8 kind, then payload
//	  NULL:   nothing
//	  INT:    varint-free fixed 8 bytes (little endian)
//	  FLOAT:  8 bytes IEEE-754 bits
//	  DATE:   8 bytes days
//	  STRING: u32 length + bytes
//
// The format is self-describing so temp files materialized mid-query can
// be re-read without consulting the catalog.

// TupleHeaderSize is the encoded column count that precedes the values:
// an encoded tuple takes this plus its values' EncodedSize.
const TupleHeaderSize = 2

// EncodedSize returns the number of bytes EncodeTuple will produce.
func EncodedSize(t Tuple) int {
	n := TupleHeaderSize
	for _, v := range t {
		n += v.EncodedSize()
	}
	return n
}

// EncodedSize returns the bytes the value takes inside an encoded tuple:
// its kind byte plus its payload. Per-column width statistics are
// averages of this, so that a projection's estimated size is in the unit
// operators account memory in.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindString:
		return 1 + 4 + len(v.str())
	default:
		return 1 + 8
	}
}

// EncodeTuple appends the wire form of t to dst and returns the extended
// slice. dst grows at most once; a dst with EncodedSize(t) spare capacity
// is filled in place, which is how heap appends encode straight into a
// page.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = slices.Grow(dst, EncodedSize(t))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt, KindDate:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.int()))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.float()))
		case KindString:
			s := v.str()
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// DecodeTuple parses one tuple from the front of b, returning the tuple
// and the number of bytes consumed. The tuple is allocated on its own
// (an Arena of one); a reader of many records decodes through an Arena.
func DecodeTuple(b []byte) (Tuple, int, error) {
	offs, err := LocateColumns(b, make([]int, 0, 32), math.MaxInt)
	if err != nil {
		return nil, 0, err
	}
	var a Arena
	t, err := a.Materialize(b, offs, nil, 1)
	return t, offs[len(offs)-1], err
}

// LocateColumns is the engine's one walk over an encoded record. It
// extends offs until it holds the byte offset of every column below upto
// (or of every column the record has, if those are fewer): offs[i] is
// where column i's kind byte sits and the last entry where the next
// column would start, so len(offs)-1 columns are located. Every column
// the walk passes is checked to lie inside b with a known kind; nothing
// past the last one asked for is looked at. Handing the result back with
// a larger upto resumes the walk where it stopped — a scan locates its
// filter's columns, tests them, and walks on to the projection's only for
// a record that passed. An empty offs starts a record.
func LocateColumns(b []byte, offs []int, upto int) ([]int, error) {
	if len(b) < TupleHeaderSize {
		return offs, fmt.Errorf("types: truncated tuple header")
	}
	upto = min(upto, int(binary.LittleEndian.Uint16(b)))
	if cap(offs) <= upto {
		// Once per reader, not once per doubling: records of one file
		// are all as wide.
		offs = append(make([]int, 0, upto+1), offs...)
	}
	if len(offs) == 0 {
		offs = append(offs, TupleHeaderSize)
	}
	off := offs[len(offs)-1]
	for i := len(offs) - 1; i < upto; i++ {
		if off >= len(b) {
			return offs, fmt.Errorf("types: truncated tuple at column %d", i)
		}
		switch kind := Kind(b[off]); kind {
		case KindNull:
			off++
		case KindInt, KindDate, KindFloat:
			if off+9 > len(b) {
				return offs, fmt.Errorf("types: truncated %s at column %d", kind, i)
			}
			off += 9
		case KindString:
			if off+5 > len(b) {
				return offs, fmt.Errorf("types: truncated string length at column %d", i)
			}
			off += 5 + int(binary.LittleEndian.Uint32(b[off+1:]))
			if off > len(b) {
				return offs, fmt.Errorf("types: truncated string at column %d", i)
			}
		default:
			return offs, fmt.Errorf("types: unknown kind %d at column %d", kind, i)
		}
		offs = append(offs, off)
	}
	return offs, nil
}

// View returns the column LocateColumns found at off in b. A VARCHAR
// aliases b's bytes: the value is good for as long as b is neither
// written nor recycled — under a page's pin, for a filter's test — and is
// never handed on; Arena.Materialize copies.
func View(b []byte, off int) Value {
	switch kind := Kind(b[off]); kind {
	case KindInt, KindDate, KindFloat:
		return Value{kind: kind, w: binary.LittleEndian.Uint64(b[off+1:])}
	case KindString:
		if n := binary.LittleEndian.Uint32(b[off+1:]); n > 0 {
			return Value{kind: kind, p: &b[off+5], w: uint64(n)}
		}
		return Value{kind: kind}
	}
	return Value{}
}

// CompareAt is View(b, off).Compare(c) for a c that is not NULL, without
// building the view where the stored kind is c's: the payload bytes are
// compared as they lie. Another kind takes Compare's own rules
// (promotion, ordering across kinds).
func CompareAt(b []byte, off int, c Value) int {
	if Kind(b[off]) == c.kind {
		switch c.kind {
		case KindInt, KindDate:
			return cmp.Compare(int64(binary.LittleEndian.Uint64(b[off+1:])), c.int())
		case KindFloat:
			// A NaN compares equal to everything, as in Compare.
			switch x, y := math.Float64frombits(binary.LittleEndian.Uint64(b[off+1:])), c.float(); {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	}
	return View(b, off).Compare(c)
}
