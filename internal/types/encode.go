package types

import (
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

// TupleWidth returns the column count of the encoded tuple at the front
// of b.
func TupleWidth(b []byte) (int, error) {
	if len(b) < TupleHeaderSize {
		return 0, fmt.Errorf("types: truncated tuple header")
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

// DecodeTuple parses one tuple from the front of b, returning the tuple
// and the number of bytes consumed. The tuple is allocated on its own
// (an Arena of one); a reader of many records decodes through an Arena.
func DecodeTuple(b []byte) (Tuple, int, error) {
	n, err := TupleWidth(b)
	if err != nil {
		return nil, 0, err
	}
	var a Arena
	t := a.New(n, 1)
	off, err := a.decode(t, b, nil, false)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// decode is the engine's one tuple decode loop. dense selects where a
// wanted column lands: at its position in cols, or at its own ordinal.
// String bytes are copied into a's block.
func (a *Arena) decode(dst Tuple, b []byte, cols []int, dense bool) (int, error) {
	if len(b) < TupleHeaderSize {
		return 0, fmt.Errorf("types: truncated tuple header")
	}
	n := len(dst)
	if dense && cols != nil {
		n = int(binary.LittleEndian.Uint16(b[:2]))
	}
	off, next := TupleHeaderSize, 0
	for i := 0; i < n; i++ {
		want, at := cols == nil, i
		if !want {
			if next == len(cols) {
				break
			}
			if want = cols[next] == i; want {
				if dense {
					at = next
				}
				next++
			}
		}
		if off >= len(b) {
			return 0, fmt.Errorf("types: truncated tuple at column %d", i)
		}
		kind := Kind(b[off])
		off++
		switch kind {
		case KindNull:
			if want {
				dst[at] = Value{}
			}
		case KindInt, KindDate, KindFloat:
			if off+8 > len(b) {
				return 0, fmt.Errorf("types: truncated %s at column %d", kind, i)
			}
			if want {
				dst[at] = Value{kind: kind, w: binary.LittleEndian.Uint64(b[off : off+8])}
			}
			off += 8
		case KindString:
			if off+4 > len(b) {
				return 0, fmt.Errorf("types: truncated string length at column %d", i)
			}
			l := int(binary.LittleEndian.Uint32(b[off : off+4]))
			off += 4
			if off+l > len(b) {
				return 0, fmt.Errorf("types: truncated string at column %d", i)
			}
			if want {
				dst[at] = a.str(b[off : off+l])
			}
			off += l
		default:
			return 0, fmt.Errorf("types: unknown kind %d at column %d", kind, i)
		}
	}
	if dense && next < len(cols) {
		return 0, fmt.Errorf("types: tuple has %d columns, projection wants column %d", n, cols[next])
	}
	return off, nil
}
