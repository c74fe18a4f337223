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

// EncodedSize returns the number of bytes EncodeTuple will produce.
func EncodedSize(t Tuple) int {
	n := 2
	for _, v := range t {
		n++ // kind byte
		switch v.kind {
		case KindNull:
		case KindString:
			n += 4 + len(v.s)
		default:
			n += 8
		}
	}
	return n
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
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindString:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// TupleWidth returns the column count of the encoded tuple at the front
// of b.
func TupleWidth(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("types: truncated tuple header")
	}
	return int(binary.LittleEndian.Uint16(b[:2])), nil
}

// DecodeTuple parses one tuple from the front of b, returning the tuple
// and the number of bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	n, err := TupleWidth(b)
	if err != nil {
		return nil, 0, err
	}
	t := make(Tuple, n)
	off, err := DecodeColumns(t, b, nil)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// DecodeColumns is the engine's one tuple decode loop. It parses the
// encoded tuple at the front of b into dst, whose length must be the
// tuple's TupleWidth, and returns the number of bytes walked. A nil cols
// decodes every column; otherwise cols lists, in ascending order, the
// only ordinals to materialise: the rest of dst is left untouched, the
// bytes of unwanted columns are skipped without being looked at, and the
// walk stops after the last wanted column. Page scans use that to test a
// predicate on its own columns before paying for the whole record.
func DecodeColumns(dst Tuple, b []byte, cols []int) (int, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("types: truncated tuple header")
	}
	off, next := 2, 0
	for i := range dst {
		want := cols == nil
		if !want {
			if next == len(cols) {
				break
			}
			if want = cols[next] == i; want {
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
				dst[i] = Value{}
			}
		case KindInt, KindDate, KindFloat:
			if off+8 > len(b) {
				return 0, fmt.Errorf("types: truncated %s at column %d", kind, i)
			}
			if want {
				raw := binary.LittleEndian.Uint64(b[off : off+8])
				if kind == KindFloat {
					dst[i] = Value{kind: kind, f: math.Float64frombits(raw)}
				} else {
					dst[i] = Value{kind: kind, i: int64(raw)}
				}
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
				dst[i] = Value{kind: kind, s: string(b[off : off+l])}
			}
			off += l
		default:
			return 0, fmt.Errorf("types: unknown kind %d at column %d", kind, i)
		}
	}
	return off, nil
}
