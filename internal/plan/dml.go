package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// DML plan nodes. They are self-contained — no child operator subtree;
// the executor reads the target table itself under the transaction's
// snapshot, materializing matching RIDs before modifying anything so an
// UPDATE never revisits its own output (the Halloween problem). An
// UPDATE's or DELETE's plan space is its target's access path: a table
// scan, or the key range the optimizer chooses for a leaf with the same
// predicates (optimizer.Optimizer.Target), which the session sets as
// Key. DML plans bypass the plan cache and the re-optimizing
// dispatcher: a write's cost is dominated by the writes themselves.

// SetCol is one UPDATE assignment: target column ordinal and the bound
// value expression evaluated over the old tuple.
type SetCol struct {
	Col int
	Val Expr
}

// Insert appends the evaluated rows to the table.
type Insert struct {
	base
	Table *catalog.Table
	// Rows holds one bound expression per column, in schema order, for
	// each target row. Unnamed columns are filled with NULL.
	Rows [][]Expr
}

// Schema implements Node. DML nodes produce no tuples.
func (i *Insert) Schema() *types.Schema { return types.NewSchema() }

// Children implements Node.
func (i *Insert) Children() []Node { return nil }

// Label implements Node.
func (i *Insert) Label() string { return "insert" }

// Describe implements Node.
func (i *Insert) Describe() string {
	return fmt.Sprintf("%s (%d rows)", i.Table.Name, len(i.Rows))
}

// Update rewrites every visible tuple matching Filters: the old version
// is deleted and a new version with the assignments applied is inserted.
type Update struct {
	base
	Table   *catalog.Table
	Filters []Pred
	Set     []SetCol
	Key     *KeyRange // the target's key range; nil scans the table
}

// Schema implements Node.
func (u *Update) Schema() *types.Schema { return types.NewSchema() }

// Children implements Node.
func (u *Update) Children() []Node { return nil }

// Label implements Node.
func (u *Update) Label() string { return "update" }

// Describe implements Node.
func (u *Update) Describe() string {
	parts := make([]string, len(u.Set))
	for i, s := range u.Set {
		parts[i] = fmt.Sprintf("%s = %s", u.Table.Schema.Columns[s.Col].Name, s.Val)
	}
	d := u.Table.Name + " set " + strings.Join(parts, ", ")
	return d + describeKey(u.Table, u.Key) + describeFilters(u.Filters)
}

// Delete removes every visible tuple matching Filters.
type Delete struct {
	base
	Table   *catalog.Table
	Filters []Pred
	Key     *KeyRange // as Update.Key
}

// Schema implements Node.
func (d *Delete) Schema() *types.Schema { return types.NewSchema() }

// Children implements Node.
func (d *Delete) Children() []Node { return nil }

// Label implements Node.
func (d *Delete) Label() string { return "delete" }

// Describe implements Node.
func (d *Delete) Describe() string {
	return d.Table.Name + describeKey(d.Table, d.Key) + describeFilters(d.Filters)
}

func describeKey(t *catalog.Table, k *KeyRange) string {
	if k == nil {
		return ""
	}
	return " key " + k.String(t.Schema.Columns[k.Col].Name)
}

func describeFilters(preds []Pred) string {
	if len(preds) == 0 {
		return ""
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return " where " + strings.Join(parts, " and ")
}

// PlanDML binds a parsed DML statement against the catalog into an
// executable plan node.
func PlanDML(cat *catalog.Catalog, stmt sql.Stmt) (Node, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return planInsert(cat, s)
	case *sql.UpdateStmt:
		return planUpdate(cat, s)
	case *sql.DeleteStmt:
		return planDelete(cat, s)
	default:
		return nil, fmt.Errorf("plan: %T is not a DML statement", stmt)
	}
}

func planInsert(cat *catalog.Catalog, s *sql.InsertStmt) (*Insert, error) {
	t, err := cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// Map the statement's column list (or schema order) to ordinals.
	cols := make([]int, 0, t.Schema.Len())
	if len(s.Columns) == 0 {
		for i := range t.Schema.Columns {
			cols = append(cols, i)
		}
	} else {
		for _, name := range s.Columns {
			i, err := t.Schema.Resolve("", name)
			if err != nil {
				return nil, err
			}
			cols = append(cols, i)
		}
	}
	// VALUES expressions may not reference columns: bind against an
	// empty schema so column references fail at plan time.
	empty := types.NewSchema()
	node := &Insert{Table: t}
	for _, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("plan: INSERT row has %d values for %d columns", len(row), len(cols))
		}
		bound := make([]Expr, t.Schema.Len())
		for i := range bound {
			bound[i] = &ConstExpr{Val: types.Null()}
		}
		for i, e := range row {
			be, err := Bind(e, empty)
			if err != nil {
				return nil, err
			}
			bound[cols[i]] = be
		}
		node.Rows = append(node.Rows, bound)
	}
	node.Est().Rows = float64(len(node.Rows))
	return node, nil
}

func planUpdate(cat *catalog.Catalog, s *sql.UpdateStmt) (*Update, error) {
	t, err := cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	node := &Update{Table: t}
	for _, a := range s.Set {
		col, err := t.Schema.Resolve("", a.Column)
		if err != nil {
			return nil, err
		}
		val, err := Bind(a.Value, t.Schema)
		if err != nil {
			return nil, err
		}
		node.Set = append(node.Set, SetCol{Col: col, Val: val})
	}
	node.Filters, err = bindFilters(s.Where, t.Schema)
	if err != nil {
		return nil, err
	}
	card, _ := t.Stats()
	node.Est().Rows = card
	return node, nil
}

func planDelete(cat *catalog.Catalog, s *sql.DeleteStmt) (*Delete, error) {
	t, err := cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	node := &Delete{Table: t}
	var err2 error
	node.Filters, err2 = bindFilters(s.Where, t.Schema)
	if err2 != nil {
		return nil, err2
	}
	card, _ := t.Stats()
	node.Est().Rows = card
	return node, nil
}

func bindFilters(preds []sql.Predicate, schema *types.Schema) ([]Pred, error) {
	var out []Pred
	for _, p := range preds {
		bp, err := BindPred(p, schema)
		if err != nil {
			return nil, err
		}
		out = append(out, bp)
	}
	return out, nil
}
