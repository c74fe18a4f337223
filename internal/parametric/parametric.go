// Package parametric implements the hybrid the paper proposes as future
// work (§4): "the query optimizer can try to anticipate the most common
// cases that might arise at run-time and produce a parameterized plan
// that covers these possibilities. At query execution time, statistics
// can be observed/collected to determine which plan to choose ... If a
// situation arises at run-time that is not covered by the common cases
// anticipated by the query optimizer, dynamic re-optimization can be
// used."
//
// The unknowns a parametric plan covers here are host-variable
// selectivities — the run-time parameters of Graefe & Ward's dynamic
// plans [8] and Ioannidis et al.'s parametric optimization [10]. Prepare
// enumerates one plan per anticipated selectivity scenario and dedupes
// structurally identical ones; Choose evaluates the actual bound values
// against the catalog's histograms (the choose-plan operator's job) and
// picks the candidate whose scenario is nearest in log-selectivity
// space. The chosen plan then executes under the regular re-optimizing
// dispatcher, covering the unanticipated cases.
package parametric

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// DefaultScenarios are the anticipated host-variable selectivities: a
// highly selective binding, the textbook default, and a binding that
// keeps everything.
var DefaultScenarios = []float64{0.01, 1.0 / 3.0, 1.0}

// Candidate is one member of the parametric plan.
type Candidate struct {
	// Scenario is the assumed host-variable selectivity.
	Scenario float64
	// Shape is the structural signature of the plan (join order and
	// methods); candidates with equal shapes are merged.
	Shape string
	// Scenarios lists every scenario that produced this shape.
	Scenarios []float64
}

// Prepared is a compiled parametric plan.
type Prepared struct {
	cat        *catalog.Catalog
	opt        optimizer.Optimizer
	stmt       *sql.SelectStmt
	query      *optimizer.Query
	Candidates []Candidate
}

// Prepare analyzes the statement and enumerates candidate plans across
// the scenarios, each planned by a copy of opt with the scenario's
// host-variable selectivity. Statements without host variables yield a
// single candidate.
func Prepare(cat *catalog.Catalog, src string, opt *optimizer.Optimizer, scenarios []float64) (*Prepared, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	q, err := optimizer.Analyze(cat, stmt)
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = DefaultScenarios
	}
	p := &Prepared{cat: cat, opt: *opt, stmt: stmt, query: q}

	byShape := map[string]*Candidate{}
	var order []string
	for _, s := range scenarios {
		res, err := p.optimize(s)
		if err != nil {
			return nil, err
		}
		shape := Shape(res.Root)
		if c, ok := byShape[shape]; ok {
			c.Scenarios = append(c.Scenarios, s)
			continue
		}
		byShape[shape] = &Candidate{Scenario: s, Shape: shape, Scenarios: []float64{s}}
		order = append(order, shape)
	}
	for _, shape := range order {
		p.Candidates = append(p.Candidates, *byShape[shape])
	}
	return p, nil
}

// optimize plans the statement under one scenario. Analysis is redone so
// each Result owns fresh, independently-mutable annotations.
func (p *Prepared) optimize(scenario float64) (*optimizer.Result, error) {
	q, err := optimizer.Analyze(p.cat, p.stmt)
	if err != nil {
		return nil, err
	}
	opt := p.opt
	opt.HostVarSelectivity = scenario
	return opt.Optimize(q)
}

// Choose evaluates the actual host-variable bindings against catalog
// statistics and returns the candidate plan whose scenario is nearest to
// the observed selectivity, ready for execution. This is the start-up
// decision of a choose-plan operator: it needs no data access, only the
// catalog.
func (p *Prepared) Choose(params plan.Params) (*optimizer.Result, float64, error) {
	actual := p.ActualSelectivity(params)
	best := p.Candidates[0]
	bestDist := math.Inf(1)
	for _, c := range p.Candidates {
		// Compare against the geometric mean of the scenarios that
		// mapped to this shape.
		for _, s := range c.Scenarios {
			d := math.Abs(math.Log(math.Max(actual, 1e-6)) - math.Log(math.Max(s, 1e-6)))
			if d < bestDist {
				bestDist = d
				best = c
				best.Scenario = s
			}
		}
	}
	res, err := p.optimize(best.Scenario)
	if err != nil {
		return nil, 0, err
	}
	return res, best.Scenario, nil
}

// ActualSelectivity estimates the geometric-mean selectivity of the
// host-variable predicates under the given bindings, by substituting the
// bound values for the host variables and consulting the catalog
// histograms.
func (p *Prepared) ActualSelectivity(params plan.Params) float64 {
	product := 1.0
	n := 0
	for ri := range p.query.Rels {
		for _, pr := range p.query.Rels[ri].LocalPreds {
			bound, changed := substituteParams(pr.AST, params)
			if !changed {
				continue
			}
			product *= p.query.LocalSelectivity(ri, bound)
			n++
		}
	}
	if n == 0 {
		return 1.0 / 3.0
	}
	return math.Pow(product, 1/float64(n))
}

// substituteParams rewrites a predicate with host variables replaced by
// their bound literal values, reporting whether any substitution
// happened.
func substituteParams(p sql.Predicate, params plan.Params) (sql.Predicate, bool) {
	changed := false
	var subst func(e sql.Expr) sql.Expr
	subst = func(e sql.Expr) sql.Expr {
		switch x := e.(type) {
		case *sql.HostVar:
			if v, ok := params[x.Name]; ok {
				changed = true
				return &sql.Literal{Value: v}
			}
			return x
		case *sql.BinaryExpr:
			return &sql.BinaryExpr{Op: x.Op, Left: subst(x.Left), Right: subst(x.Right)}
		default:
			return e
		}
	}
	var out sql.Predicate
	switch x := p.(type) {
	case *sql.ComparePred:
		out = &sql.ComparePred{Op: x.Op, Left: subst(x.Left), Right: subst(x.Right)}
	case *sql.BetweenPred:
		out = &sql.BetweenPred{Expr: subst(x.Expr), Lo: subst(x.Lo), Hi: subst(x.Hi)}
	case *sql.InPred:
		list := make([]sql.Expr, len(x.List))
		for i, e := range x.List {
			list[i] = subst(e)
		}
		out = &sql.InPred{Expr: subst(x.Expr), List: list}
	case *sql.LikePred:
		out = &sql.LikePred{Expr: subst(x.Expr), Pattern: x.Pattern}
	default:
		out = p
	}
	return out, changed
}

// Shape renders a plan's structural signature: operator kinds, access
// paths, join order, and join methods — everything that distinguishes parametric
// candidates, nothing that doesn't (estimates, grants).
func Shape(n plan.Node) string {
	var b strings.Builder
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			kind := "scan"
			if x.Key != nil {
				kind = "iscan"
			}
			fmt.Fprintf(&b, "%s(%s)", kind, x.Binding)
			return
		case *plan.HashJoin:
			b.WriteString("hj(")
			walk(x.Build)
			b.WriteByte(',')
			walk(x.Probe)
			b.WriteByte(')')
			return
		case *plan.IndexJoin:
			b.WriteString("ij(")
			walk(x.Outer)
			fmt.Fprintf(&b, ",%s)", x.Binding)
			return
		}
		fmt.Fprintf(&b, "%s(", n.Label())
		for i, c := range n.Children() {
			if i > 0 {
				b.WriteByte(',')
			}
			walk(c)
		}
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}
