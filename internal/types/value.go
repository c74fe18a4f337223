// Package types defines the value, tuple, and schema primitives shared by
// every layer of the engine: storage, catalog, optimizer, and executor.
//
// A Value is a compact tagged union over the SQL types the engine supports
// (64-bit integers, 64-bit floats, strings, and dates stored as days since
// the Unix epoch). Values are immutable once constructed; all operations
// return new Values.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported SQL value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
)

var kindNames = [...]string{"NULL", "INTEGER", "FLOAT", "VARCHAR", "DATE"}

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a tagged union over the engine's SQL types, 24 bytes wide: a
// data pointer, one 64-bit payload word and the kind. The zero Value is
// the SQL NULL.
//
// The payload word holds an INTEGER, a DATE's days since the epoch, a
// FLOAT's IEEE-754 bits, or a VARCHAR's length in bytes; the pointer is
// the first byte of a VARCHAR's data and nil for every other kind and
// for "". A string is therefore carried as (pointer, length) without the
// string header's second copy of either, and viewed through
// unsafe.String: this package is the only one that imports unsafe, and
// nothing outside int, float, str and Bits reads p or w.
//
// Two Values holding the same string need not hold the same pointer, so
// == would be identity where every caller wants Equal; the zero-size
// func array makes it a compile error.
type Value struct {
	_    [0]func()
	p    *byte
	w    uint64
	kind Kind
}

// int returns the payload word as an INTEGER or DATE.
func (v Value) int() int64 { return int64(v.w) }

// float returns the payload word as a FLOAT.
func (v Value) float() float64 { return math.Float64frombits(v.w) }

// str views the payload as a VARCHAR. The bytes behind p are never
// written once a Value points at them (see Arena), which is what lets a
// string share them.
func (v Value) str() string { return unsafe.String(v.p, int(v.w)) }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// NewString returns a VARCHAR value sharing v's bytes.
func NewString(v string) Value {
	if len(v) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: unsafe.StringData(v), w: uint64(len(v))}
}

// NewDate returns a DATE value holding the given number of days since the
// Unix epoch (1970-01-01).
func NewDate(days int64) Value { return Value{kind: KindDate, w: uint64(days)} }

// NewDateFromTime converts a time.Time (interpreted in UTC) to a DATE.
func NewDateFromTime(t time.Time) Value {
	return NewDate(t.UTC().Unix() / 86400)
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Kind returns the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an
// INTEGER or DATE.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindDate {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.int()
}

// Float returns the float payload. It panics unless the value is a FLOAT.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.float()
}

// Bits returns the payload word as it is held: an INTEGER's or DATE's
// int64, a FLOAT's IEEE-754 bits; for a VARCHAR or NULL it means nothing.
// It does not check the kind: a caller that has checked it reads the
// number for the price of a load.
func (v Value) Bits() uint64 { return v.w }

// Str returns the string payload. It panics unless the value is a VARCHAR.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.str()
}

// Days returns the DATE payload as days since the epoch. It panics unless
// the value is a DATE.
func (v Value) Days() int64 {
	if v.kind != KindDate {
		panic(fmt.Sprintf("types: Days() on %s value", v.kind))
	}
	return v.int()
}

// AsFloat converts any numeric or date value to float64 for estimation
// arithmetic (histogram bucket math, selectivity computation). Strings
// return their hash folded into float space so that histograms can still
// bucket them deterministically; NULL returns NaN.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt, KindDate:
		return float64(v.int())
	case KindFloat:
		return v.float()
	case KindString:
		return float64(v.Hash() & 0x7fffffffffff)
	default:
		return math.NaN()
	}
}

// Compare orders two values. NULL sorts before every non-NULL value.
// Comparing an INTEGER against a FLOAT promotes the integer. Comparing
// incomparable kinds (e.g. VARCHAR vs INTEGER) orders by kind so that
// sorting remains a total order, which keeps the sort operator safe on
// heterogeneous inputs.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	// Numeric promotion.
	if v.kind.Numeric() && o.kind.Numeric() && v.kind != o.kind {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt, KindDate:
		return cmp.Compare(v.int(), o.int())
	case KindFloat:
		// Not cmp.Compare: a NaN compares equal to everything here, as
		// it always has.
		switch a, b := v.float(), o.float(); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	case KindString:
		return strings.Compare(v.str(), o.str())
	}
	return 0
}

// Equal reports value equality under Compare semantics, without
// Compare where the kinds say enough: two INTEGERs, two DATEs or two
// NULLs (whose words are 0) are equal when their words are, two VARCHARs
// when their strings are. Values of two kinds, and FLOATs — a NaN
// compares equal to everything — go through Compare.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind || v.kind == KindFloat {
		return v.Compare(o) == 0
	}
	return v.w == o.w && (v.kind != KindString || v.str() == o.str())
}

// Coerce converts v to kind k as a column of kind k stores it, where the
// conversion is lossless enough for the engine's numeric model: an
// INTEGER to a FLOAT or a DATE, a FLOAT to an INTEGER (truncated). NULL
// and a value of kind k are stored as they are; any other mismatch is an
// error.
func Coerce(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	switch {
	case k == KindFloat && v.kind == KindInt:
		return NewFloat(float64(v.int())), nil
	case k == KindInt && v.kind == KindFloat:
		return NewInt(int64(v.float())), nil
	case k == KindDate && v.kind == KindInt:
		return NewDate(v.int()), nil
	}
	return Value{}, fmt.Errorf("cannot store %s value as %s", v.kind, k)
}

// Hash returns a stable 64-bit hash of the value, suitable for hash joins
// and hash aggregation. Equal values (including cross-kind numeric equals
// like 2 and 2.0) hash identically. It is FNV-1a over the payload: the
// eight little-endian bytes of a number, the bytes of a string.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	switch v.kind {
	case KindNull:
		return 0x9e3779b97f4a7c15
	case KindInt, KindDate, KindFloat:
		bits := v.w
		if v.kind != KindFloat {
			// Hash integers through their float image when exactly
			// representable so that 2 and 2.0 collide, matching Equal.
			if f := float64(v.int()); int64(f) == v.int() {
				bits = math.Float64bits(f)
			}
		}
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(byte(bits>>i))) * prime64
		}
	case KindString:
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
	}
	return h
}

// String renders the value for display and plan output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindDate:
		return time.Unix(v.int()*86400, 0).UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// ByteSize returns the in-memory footprint the engine charges for the
// value: fixed 8 bytes for scalars, string length plus header for strings.
// The memory manager and cost model use this to size hash tables and sort
// runs.
func (v Value) ByteSize() int {
	switch v.kind {
	case KindString:
		return 16 + int(v.w)
	default:
		return 8
	}
}

// Add returns v + o with numeric promotion. Adding anything to NULL
// yields NULL, per SQL semantics.
func (v Value) Add(o Value) (Value, error) { return arith(v, o, '+') }

// Sub returns v - o with numeric promotion.
func (v Value) Sub(o Value) (Value, error) { return arith(v, o, '-') }

// Mul returns v * o with numeric promotion.
func (v Value) Mul(o Value) (Value, error) { return arith(v, o, '*') }

// Div returns v / o with numeric promotion. Integer division of integers
// follows SQL and truncates; division by zero is an error.
func (v Value) Div(o Value) (Value, error) { return arith(v, o, '/') }

func arith(v, o Value, op byte) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	// DATE +/- INTEGER shifts by days.
	if v.kind == KindDate && o.kind == KindInt && (op == '+' || op == '-') {
		if op == '+' {
			return NewDate(v.int() + o.int()), nil
		}
		return NewDate(v.int() - o.int()), nil
	}
	if !v.kind.Numeric() || !o.kind.Numeric() {
		return Null(), fmt.Errorf("types: cannot apply %c to %s and %s", op, v.kind, o.kind)
	}
	if v.kind == KindInt && o.kind == KindInt {
		a, b := v.int(), o.int()
		switch op {
		case '+':
			return NewInt(a + b), nil
		case '-':
			return NewInt(a - b), nil
		case '*':
			return NewInt(a * b), nil
		case '/':
			if b == 0 {
				return Null(), fmt.Errorf("types: integer division by zero")
			}
			return NewInt(a / b), nil
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch op {
	case '+':
		return NewFloat(a + b), nil
	case '-':
		return NewFloat(a - b), nil
	case '*':
		return NewFloat(a * b), nil
	case '/':
		if b == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return NewFloat(a / b), nil
	}
	return Null(), fmt.Errorf("types: unknown operator %c", op)
}
