package types

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Tuple wire format, used by heap pages, temp files and spill partitions:
//
//	u16 column count
//	one kind byte per column
//	one slot per column, in column order:
//	  NULL:    none
//	  INT:     8 bytes, little endian
//	  FLOAT:   8 bytes IEEE-754 bits
//	  DATE:    8 bytes days
//	  VARCHAR: u32 end offset of its bytes, from the record's start
//	the VARCHARs' bytes, in column order
//
// Where a column's slot lies depends on the kind bytes alone, so a reader
// derives it once (Shape) and reuses it for every record with the same
// kinds: reaching column k passes nothing before it. A VARCHAR's bytes
// begin where the VARCHAR before it ends, the first at the end of the
// slots.
//
// The format is self-describing so temp files materialized mid-query can
// be re-read without consulting the catalog. A column takes its kind
// byte and its payload (8 bytes, 4 + length, or nothing for a NULL), as
// in a kind-then-payload layout: EncodedSize is the same sum.

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
	fixed, strs := TupleHeaderSize+len(t), 0
	for _, v := range t {
		switch v.kind {
		case KindNull:
		case KindString:
			fixed += 4
			strs += len(v.str())
		default:
			fixed += 8
		}
	}
	size := fixed + strs
	dst = slices.Grow(dst, size)
	rec := dst[len(dst) : len(dst)+size]
	binary.LittleEndian.PutUint16(rec, uint16(len(t)))
	slot, end := TupleHeaderSize+len(t), fixed
	for i, v := range t {
		rec[TupleHeaderSize+i] = byte(v.kind)
		switch v.kind {
		case KindNull:
		case KindString:
			end += copy(rec[end:], v.str())
			binary.LittleEndian.PutUint32(rec[slot:], uint32(end))
			slot += 4
		default:
			binary.LittleEndian.PutUint64(rec[slot:], v.w)
			slot += 8
		}
	}
	return dst[:len(dst)+size]
}

// DecodeTuple parses one tuple from the front of b, returning the tuple
// and the number of bytes consumed. The tuple is allocated on its own
// (an Arena of one); a reader of many records decodes through a Shape and
// an Arena.
func DecodeTuple(b []byte) (Tuple, int, error) {
	var s Shape
	if err := s.Fit(b); err != nil {
		return nil, 0, err
	}
	var a Arena
	t, err := a.Materialize(b, &s, nil, 1)
	if err != nil {
		return nil, 0, err
	}
	return t, s.end(b), nil
}

// shapeRoom is how many columns a Shape holds without allocating: more
// than any table of the engine's has, and most of its joined rows.
const shapeRoom = 24

// Shape is where the columns of a record lie, as its count and kind bytes
// say; every record with the same ones has the same shape. A reader of
// many records keeps one and Fits it to each: what it costs per record is
// one comparison of those bytes, and a new derivation only when they
// differ, say for a row with a NULL. Nothing reads a payload to find a
// column. The zero Shape fits no record yet.
//
// A Shape of up to shapeRoom columns lives in its own arrays, so that a
// reader embedding one allocates nothing to fit it; the arrays are not
// referenced from slices, which leaves a Shape free to live on the stack.
type Shape struct {
	n     int // columns
	fixed int // the end of the slots, where the first VARCHAR's bytes begin
	last  int // the last VARCHAR's slot, 0 if there is none

	// The count and kind bytes of the records it fits, head[:hlen], and
	// where their columns lie; hlen is 0 for a wider record, and for a
	// Shape that fits nothing. A header of 8 to 16 bytes — tables of 6
	// to 14 columns — is also held as its first and last 8 bytes, hw0
	// and hw1, so that Fit compares it in two loads; hw is its length
	// then, and 0 otherwise.
	hlen, hw int
	hw0, hw1 uint64
	head     [TupleHeaderSize + shapeRoom]byte
	room     [shapeRoom]column

	// A wider record's header and columns; empty otherwise.
	wideHead []byte
	wide     []column
}

// column is where one column's slot lies in a record.
type column struct {
	kind Kind
	slot int32 // its offset from the record's start
	prev int32 // a VARCHAR's: the slot of the VARCHAR before it, 0 if it is the first
}

// columns is where each column of the records s fits lies.
func (s *Shape) columns() []column {
	if len(s.wide) > 0 {
		return s.wide
	}
	return s.room[:s.n]
}

// Fit makes s the shape of record b. A truncated header — the count or
// the kind bytes — and an unknown kind are errors, after which s fits no
// record until the next Fit that succeeds. The slots and the strings are
// not looked at: each read of a column checks its own bytes.
func (s *Shape) Fit(b []byte) error {
	if s.Fits(b) {
		return nil
	}
	return s.refit(b)
}

// Fits is Fit's check for a header of 8 to 16 bytes, small enough to be
// inlined into a reader's loop: true means s already is b's shape, false
// only that Fit must look further.
func (s *Shape) Fits(b []byte) bool {
	h := s.hw
	return h > 0 && len(b) >= h &&
		binary.LittleEndian.Uint64(b) == s.hw0 && binary.LittleEndian.Uint64(b[h-8:]) == s.hw1
}

// refit is Fit for any other header: a short or long one compared in
// full, else derived afresh.
func (s *Shape) refit(b []byte) error {
	if h := s.hlen; h > 0 && len(b) >= h && string(b[:h]) == string(s.head[:h]) ||
		len(s.wide) > 0 && bytes.HasPrefix(b, s.wideHead) {
		return nil
	}
	s.n, s.hlen, s.hw, s.wide = 0, 0, 0, s.wide[:0]
	if len(b) < TupleHeaderSize {
		return fmt.Errorf("types: truncated tuple header")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < TupleHeaderSize+n {
		return fmt.Errorf("types: truncated kind bytes: %d of %d columns", len(b)-TupleHeaderSize, n)
	}
	cols := s.room[:min(n, shapeRoom)]
	if n > shapeRoom {
		if cap(s.wide) < n {
			s.wide = make([]column, n)
		}
		s.wide = s.wide[:n]
		cols = s.wide
	}
	slot, prev := TupleHeaderSize+n, 0
	for i, k := range b[TupleHeaderSize : TupleHeaderSize+n] {
		c := column{kind: Kind(k), slot: int32(slot)}
		switch c.kind {
		case KindNull:
		case KindInt, KindDate, KindFloat:
			slot += 8
		case KindString:
			c.prev, prev = int32(prev), slot
			slot += 4
		default:
			s.wide = s.wide[:0]
			return fmt.Errorf("types: unknown kind %d at column %d", k, i)
		}
		cols[i] = c
	}
	if n > shapeRoom {
		s.wideHead = append(s.wideHead[:0], b[:TupleHeaderSize+n]...)
	} else {
		s.hlen = copy(s.head[:], b[:TupleHeaderSize+n])
		if s.hlen >= 8 && s.hlen <= 16 {
			s.hw = s.hlen
			s.hw0 = binary.LittleEndian.Uint64(s.head[:])
			s.hw1 = binary.LittleEndian.Uint64(s.head[s.hlen-8:])
		}
	}
	s.n, s.fixed, s.last = n, slot, prev
	return nil
}

// Word returns column k's kind and, for an INTEGER, FLOAT or DATE whose
// slot lies inside b, the slot's 8 bytes; ok is false for a NULL, a
// VARCHAR and a slot cut off. k must be below Width.
func (s *Shape) Word(b []byte, k int) (kind Kind, w uint64, ok bool) {
	c := s.columns()[k]
	if c.kind == KindNull || c.kind == KindString || int(c.slot)+8 > len(b) {
		return c.kind, 0, false
	}
	return c.kind, binary.LittleEndian.Uint64(b[c.slot:]), true
}

// Width is the number of columns of the records s fits.
func (s *Shape) Width() int { return s.n }

// truncated is the error for column k, a fixed-width c whose slot runs
// past the end of the record.
func truncated(c column, k int) error {
	return fmt.Errorf("types: truncated %s at column %d", c.kind, k)
}

// span returns where the bytes of column k, a VARCHAR at c, lie in b:
// from the end of the VARCHAR before it (the end of the slots for the
// first) to its own end, a range that must fall inside b after the slots.
func (s *Shape) span(b []byte, c column, k int) (lo, hi int, err error) {
	if int(c.slot)+4 > len(b) {
		return 0, 0, fmt.Errorf("types: truncated string offset at column %d", k)
	}
	hi, lo = int(binary.LittleEndian.Uint32(b[c.slot:])), s.fixed
	if c.prev != 0 {
		lo = int(binary.LittleEndian.Uint32(b[c.prev:]))
	}
	if lo < s.fixed || hi < lo || hi > len(b) {
		return 0, 0, fmt.Errorf("types: string at column %d spans bytes %d to %d of a %d-byte tuple", k, lo, hi, len(b))
	}
	return lo, hi, nil
}

// end is where record b ends, once every column has been read: at the
// end of its last VARCHAR's bytes, or of its slots if it has none.
func (s *Shape) end(b []byte) int {
	if s.last == 0 {
		return s.fixed
	}
	return int(binary.LittleEndian.Uint32(b[s.last:]))
}

// View returns column k of record b, whose shape s is; k must be below
// s.Width. A VARCHAR aliases b's bytes: the value is good for as long as
// b is neither written nor recycled — under a page's pin, for a filter's
// test — and is never handed on; Arena.Materialize copies. A column whose
// bytes do not lie inside b is an error.
func View(b []byte, s *Shape, k int) (Value, error) {
	switch c := s.columns()[k]; c.kind {
	case KindNull:
		return Value{}, nil
	case KindString:
		lo, hi, err := s.span(b, c, k)
		if err != nil || lo == hi {
			return Value{kind: KindString}, err
		}
		return Value{kind: KindString, p: &b[lo], w: uint64(hi - lo)}, nil
	default:
		if int(c.slot)+8 > len(b) {
			return Value{}, truncated(c, k)
		}
		return Value{kind: c.kind, w: binary.LittleEndian.Uint64(b[c.slot:])}, nil
	}
}

// CompareAt is View(b, s, k).Compare(c) for a c that is not NULL, without
// building the view where both kinds are numeric or both DATE: the slot
// is compared as it lies, an INTEGER promoted against a FLOAT as Compare
// promotes it. Other kinds take Compare's own rules (ordering across
// kinds, strings).
func CompareAt(b []byte, s *Shape, k int, c Value) (int, error) {
	col := s.columns()[k]
	ints := col.kind == c.kind && (c.kind == KindInt || c.kind == KindDate)
	if !ints && !(col.kind.Numeric() && c.kind.Numeric()) {
		v, err := View(b, s, k)
		return v.Compare(c), err
	}
	if int(col.slot)+8 > len(b) {
		return 0, truncated(col, k)
	}
	w := binary.LittleEndian.Uint64(b[col.slot:])
	if ints {
		return cmp.Compare(int64(w), c.int()), nil
	}
	x, y := math.Float64frombits(w), c.float()
	if col.kind == KindInt {
		x = float64(int64(w))
	}
	if c.kind == KindInt {
		y = float64(c.int())
	}
	// A NaN compares equal to everything, as in Compare.
	switch {
	case x < y:
		return -1, nil
	case x > y:
		return 1, nil
	}
	return 0, nil
}
