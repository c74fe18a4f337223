package types

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema: its qualified name and kind.
// Table is the (possibly aliased) relation the column belongs to; it is
// empty for computed columns such as aggregate outputs.
type Column struct {
	Table string
	Name  string
	Kind  Kind
	// Key marks columns that are unique keys of their base table. The
	// optimizer's inaccuracy-potential rules (paper §2.5) distinguish
	// equi-joins on key attributes from joins on non-key attributes.
	Key bool
}

// QualifiedName returns "table.name", or just "name" for computed columns.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing the tuples a plan node
// produces.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema over the given columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Resolve finds the index of a column reference. The reference may be
// qualified ("lineitem.l_qty") or bare ("l_qty"). A bare reference that
// matches columns from more than one table is ambiguous and returns an
// error; an unknown reference also returns an error.
func (s *Schema) Resolve(table, name string) (int, error) {
	idx, ambiguous := s.Find(table, name)
	if ambiguous {
		return -1, fmt.Errorf("types: ambiguous column reference %q", name)
	}
	if idx < 0 {
		ref := name
		if table != "" {
			ref = table + "." + name
		}
		return -1, fmt.Errorf("types: unknown column %q", ref)
	}
	return idx, nil
}

// Find is Resolve for a caller that expects misses — the optimizer asks
// every relation of a query about every column reference — and so builds
// no error: it returns the column's index, or -1 when no column matches,
// or -1 and ambiguous when more than one does.
func (s *Schema) Find(table, name string) (idx int, ambiguous bool) {
	idx = -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if idx >= 0 {
			return -1, true
		}
		idx = i
	}
	return idx, false
}

// Concat returns a new schema holding s's columns followed by o's. Join
// operators use it to describe their output.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// Project returns a schema of the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// String renders the schema as "(t.a INTEGER, t.b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row: a slice of values positionally matching a schema.
type Tuple []Value

// ByteSize returns the memory footprint the engine charges for the tuple.
func (t Tuple) ByteSize() int {
	n := 16 // slice header + bookkeeping
	for _, v := range t {
		n += v.ByteSize()
	}
	return n
}

// Equal reports whether t and o have the same length and hold, position
// by position, values of the same kind that are Equal. It is stricter
// than Value.Equal by the kind — INTEGER 2 is not FLOAT 2.0 here — since
// two tuples of one schema that differ in a kind differ. Values cannot be
// compared with ==; this is the comparison tests want.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if v.kind != o[i].kind || !v.Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple safe to retain after the producing
// operator advances. Values are immutable, so a shallow slice copy is a
// deep copy.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns a new tuple holding t's values followed by o's.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	c = append(c, o...)
	return c
}

// String renders the tuple for display: "[1, widget, 1996-03-01]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
