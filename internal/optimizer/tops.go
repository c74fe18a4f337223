package optimizer

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// buildTops places the aggregate / project / sort / limit operators above
// the completed join tree.
func (o *Optimizer) buildTops(q *Query, joined *dpEntry) (plan.Node, error) {
	node := joined.node
	stmt := q.Stmt

	var outSchema *types.Schema
	if q.HasAggregate && (len(stmt.GroupBy) > 0 || hasAggItems(stmt)) {
		agg, err := o.buildAgg(q, joined)
		if err != nil {
			return nil, err
		}
		node = agg
		// Project rearranges aggregate output into select-list order.
		proj, err := o.projectFromAgg(q, agg)
		if err != nil {
			return nil, err
		}
		node = proj
		outSchema = proj.Out
	} else {
		proj, err := o.projectDirect(q, node)
		if err != nil {
			return nil, err
		}
		node = proj
		outSchema = proj.Out
	}

	if stmt.Distinct {
		node = o.distinctOver(node)
		outSchema = node.Schema()
	}

	if len(stmt.OrderBy) > 0 {
		sorted, err := o.buildSort(stmt, node, outSchema)
		if err != nil {
			return nil, err
		}
		node = sorted
	}

	if stmt.Limit >= 0 {
		lim := &plan.Limit{Input: node, N: stmt.Limit}
		o.price(lim, node.Est().Cost)
		node = lim
	}
	return node, nil
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func hasAggItems(stmt *sql.SelectStmt) bool {
	for _, item := range stmt.Select {
		if _, ok := item.Expr.(*sql.AggExpr); ok {
			return true
		}
	}
	return false
}

// buildAgg constructs the aggregate node: group columns from GROUP BY,
// aggregate specs from the select list.
func (o *Optimizer) buildAgg(q *Query, joined *dpEntry) (*plan.Agg, error) {
	in := joined.node
	inSchema := in.Schema()
	var groupCols []int
	for _, g := range q.Stmt.GroupBy {
		ref, ok := g.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("optimizer: GROUP BY supports column references only, got %s", g.SQL())
		}
		idx, err := inSchema.Resolve(ref.Table, ref.Name)
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, idx)
	}

	var aggs []plan.AggSpec
	var outCols []types.Column
	for _, c := range groupCols {
		outCols = append(outCols, inSchema.Columns[c])
	}
	for i, item := range q.Stmt.Select {
		ax, ok := item.Expr.(*sql.AggExpr)
		if !ok {
			continue
		}
		var arg plan.Expr
		var argKind types.Kind = types.KindInt
		if ax.Arg != nil {
			bound, err := plan.Bind(ax.Arg, inSchema)
			if err != nil {
				return nil, err
			}
			arg = bound
			argKind = bound.Kind()
		}
		if (ax.Func == sql.AggSum || ax.Func == sql.AggAvg) && (argKind == types.KindString || argKind == types.KindDate) {
			return nil, fmt.Errorf("optimizer: %s: %s of %s is not defined", ax.SQL(), ax.Func, argKind)
		}
		name := item.Alias
		if name == "" {
			name = fmt.Sprintf("%s_%d", strings.ToLower(ax.Func.String()), i+1)
		}
		kind := argKind
		switch ax.Func {
		case sql.AggAvg:
			kind = types.KindFloat
		case sql.AggCount:
			kind = types.KindInt
		}
		aggs = append(aggs, plan.AggSpec{Func: ax.Func, Arg: arg, Name: name})
		outCols = append(outCols, types.Column{Name: name, Kind: kind})
	}

	node := &plan.Agg{Input: in, GroupCols: groupCols, Aggs: aggs, Out: types.NewSchema(outCols...)}
	e := node.Est()
	e.Rows = o.estimateGroups(q, inSchema, groupCols, joined.rows)
	e.Bytes = e.Rows * (aggKeyBytes(node) + float64(9*len(aggs)))
	o.price(node, in.Est().Cost)
	return node, nil
}

// estimateGroups predicts the number of groups: the product of the group
// columns' base-table distinct counts, capped by the input cardinality.
// At intermediate points this is exactly the estimate the paper's rules
// call "always high" inaccuracy (§2.5) — it ignores how joins and
// selections thin each column's value set.
func (o *Optimizer) estimateGroups(q *Query, inSchema *types.Schema, groupCols []int, inRows float64) float64 {
	if len(groupCols) == 0 {
		return 1
	}
	groups := 1.0
	for _, c := range groupCols {
		groups *= o.ndvOfColumn(q, inSchema.Columns[c])
	}
	return math.Max(1, math.Min(groups, inRows))
}

// projectFromAgg maps the aggregate's output columns into select-list
// order.
func (o *Optimizer) projectFromAgg(q *Query, agg *plan.Agg) (*plan.Project, error) {
	aggSchema := agg.Out
	var exprs []plan.Expr
	var outCols []types.Column
	aggOut := len(agg.GroupCols) // aggregate outputs start after group cols
	for _, item := range q.Stmt.Select {
		if _, ok := item.Expr.(*sql.AggExpr); ok {
			col := aggSchema.Columns[aggOut]
			exprs = append(exprs, &plan.ColExpr{Idx: aggOut, Col: col})
			outCols = append(outCols, col)
			aggOut++
			continue
		}
		ref, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("optimizer: non-aggregate select item %s must be a grouping column", item.Expr.SQL())
		}
		idx, err := aggSchema.Resolve(ref.Table, ref.Name)
		if err != nil {
			return nil, err
		}
		col := aggSchema.Columns[idx]
		if item.Alias != "" {
			col = types.Column{Name: item.Alias, Kind: col.Kind}
		}
		exprs = append(exprs, &plan.ColExpr{Idx: idx, Col: aggSchema.Columns[idx]})
		outCols = append(outCols, col)
	}
	node := &plan.Project{Input: agg, Exprs: exprs, Out: types.NewSchema(outCols...)}
	o.price(node, agg.Est().Cost)
	return node, nil
}

// projectDirect binds the select list straight over the join output.
func (o *Optimizer) projectDirect(q *Query, in plan.Node) (*plan.Project, error) {
	inSchema := in.Schema()
	var exprs []plan.Expr
	var outCols []types.Column
	for i, item := range q.Stmt.Select {
		bound, err := plan.Bind(item.Expr, inSchema)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, bound)
		name := item.Alias
		table := ""
		if ref, ok := item.Expr.(*sql.ColumnRef); ok && name == "" {
			name = ref.Name
			table = ref.Table
			if table == "" {
				// Recover the binding for unqualified refs.
				if idx, err := inSchema.Resolve("", ref.Name); err == nil {
					table = inSchema.Columns[idx].Table
				}
			}
		}
		if name == "" {
			name = fmt.Sprintf("col_%d", i+1)
		}
		outCols = append(outCols, types.Column{Table: table, Name: name, Kind: bound.Kind()})
	}
	node := &plan.Project{Input: in, Exprs: exprs, Out: types.NewSchema(outCols...)}
	o.price(node, in.Est().Cost)
	return node, nil
}

// distinctOver wraps a node in an aggregate grouping on every column.
func (o *Optimizer) distinctOver(in plan.Node) plan.Node {
	s := in.Schema()
	cols := make([]int, s.Len())
	for i := range cols {
		cols[i] = i
	}
	node := &plan.Agg{Input: in, GroupCols: cols, Out: s}
	ie := in.Est()
	e := node.Est()
	e.Rows = math.Max(1, ie.Rows/2) // textbook guess: duplicates halve
	e.Bytes = ie.Bytes * safeDiv(e.Rows, ie.Rows)
	o.price(node, ie.Cost)
	return node
}

// buildSort resolves ORDER BY keys against the output schema (aliases or
// column names) and wraps the plan in a sort.
func (o *Optimizer) buildSort(stmt *sql.SelectStmt, in plan.Node, outSchema *types.Schema) (plan.Node, error) {
	var keys []plan.SortKey
	for _, item := range stmt.OrderBy {
		ref, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("optimizer: ORDER BY supports output columns only, got %s", item.Expr.SQL())
		}
		idx, err := outSchema.Resolve(ref.Table, ref.Name)
		if err != nil {
			return nil, err
		}
		keys = append(keys, plan.SortKey{Col: idx, Desc: item.Desc})
	}
	node := &plan.Sort{Input: in, Keys: keys}
	o.price(node, in.Est().Cost)
	return node, nil
}
