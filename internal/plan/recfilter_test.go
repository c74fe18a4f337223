package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sql"
	"repro/internal/types"
)

// Which predicates compile to a compare of stored bytes, and which are
// tested through views by their own Test.
func TestCompileFilterShapes(t *testing.T) {
	params := Params{"x": types.NewInt(3)}
	for cond, compiled := range map[string]bool{
		"a = 10":                true,
		"10 < a":                true,
		"b >= 2.5":              true,
		"s = 'BUILDER'":         true,
		"d < 9000":              true,
		"a = :x":                true,
		":x <= a":               true,
		"a between 1 and :x":    true,
		"s between 'a' and 'b'": true,
		"a in (1, 2, :x)":       true,
		"s in ('x', 'y')":       true,
		"a = :unbound":          false,
		"a between 1 and :nope": false,
		"a in (1, :nope)":       false,
		"s like 'B%'":           false,
		"a + 1 = 10":            false,
		"a = b":                 false,
		"a between b and 10":    false,
		"1 = 1":                 false,
	} {
		p, err := BindPred(parseWhere(t, cond), bindSchema())
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if got := CompileFilter([]Pred{p}, params).terms[0].pred == nil; got != compiled {
			t.Errorf("%s: compiled = %v, want %v", cond, got, compiled)
		}
	}
	if CompileFilter(nil, params) != nil {
		t.Error("no predicates compiled to a filter")
	}
}

// filterGen draws values, records and predicates from a small domain in
// which kinds collide: integers that equal floats and dates, NaN, -0,
// empty strings, NULLs everywhere a value can stand.
type filterGen struct{ r *rand.Rand }

func (g filterGen) value() types.Value {
	switch g.r.Intn(12) {
	case 0:
		return types.Null()
	case 1, 2, 3:
		return types.NewInt(int64(g.r.Intn(5) - 1))
	case 4, 5:
		return types.NewFloat([]float64{-1, 0, math.Copysign(0, -1), 0.5, 1, 2, 3, math.NaN(), math.Inf(1)}[g.r.Intn(9)])
	case 6, 7:
		return types.NewDate(int64(g.r.Intn(5) - 1))
	default:
		return types.NewString([]string{"", "a", "ab", "b", "B"}[g.r.Intn(5)])
	}
}

// constant is a literal, or a host variable — bound in params, or now and
// then left unbound.
func (g filterGen) constant(params Params) Expr {
	if g.r.Intn(3) > 0 {
		return &ConstExpr{Val: g.value()}
	}
	name := fmt.Sprintf("p%d", len(params))
	if g.r.Intn(6) > 0 {
		params[name] = g.value()
	} else {
		name = "unbound"
	}
	return &ParamExpr{Name: name}
}

// column is a bare column, sometimes past the end of the record.
func (g filterGen) column() Expr { return &ColExpr{Idx: g.r.Intn(6)} }

type hiddenPred struct{ Pred }

func (g filterGen) pred(params Params) Pred {
	switch g.r.Intn(12) {
	case 0, 1, 2:
		return &CmpPred{Op: sql.CompareOp(g.r.Intn(6)), Left: g.column(), Right: g.constant(params)}
	case 3, 4:
		return &CmpPred{Op: sql.CompareOp(g.r.Intn(6)), Left: g.constant(params), Right: g.column()}
	case 5, 6:
		return &BetweenPred{Expr: g.column(), Lo: g.constant(params), Hi: g.constant(params)}
	case 7, 8:
		list := make([]Expr, g.r.Intn(4))
		for i := range list {
			list[i] = g.constant(params)
		}
		return &InPred{Expr: g.column(), List: list}
	case 9: // shapes that do not compile
		return &CmpPred{Op: sql.CompareOp(g.r.Intn(7)), Left: g.column(), Right: g.column()}
	case 10:
		return &LikePred{Expr: g.column(), Pattern: []string{"a%", "_", "%"}[g.r.Intn(3)]}
	default:
		e := &BinExpr{Op: "+-*/"[g.r.Intn(4)], Left: g.column(), Right: g.constant(params)}
		if g.r.Intn(2) == 0 {
			return hiddenPred{&CmpPred{Op: sql.OpLe, Left: e, Right: g.constant(params)}}
		}
		return &BetweenPred{Expr: g.column(), Lo: e, Hi: &ColExpr{Idx: g.r.Intn(3) - 1}}
	}
}

// The compiled filter and Pred.Test on the decoded tuple agree, result
// and error, for every shape over every mix of kinds.
func TestRecordFilterMatchesPredTest(t *testing.T) {
	compiled, viewed := 0, 0
	check := func(seed int64) bool {
		g := filterGen{rand.New(rand.NewSource(seed))}
		params := Params{}
		preds := make([]Pred, 1+g.r.Intn(3))
		for i := range preds {
			preds[i] = g.pred(params)
		}
		f := CompileFilter(preds, params)
		for _, term := range f.terms {
			if term.pred != nil {
				viewed++
			} else {
				compiled++
			}
		}
		var shape types.Shape // refitted record by record, as a scan's is
		for n := 0; n < 40; n++ {
			tup := make(types.Tuple, g.r.Intn(7))
			for i := range tup {
				tup[i] = g.value()
			}
			rec := types.EncodeTuple(nil, tup)
			want, wantErr := true, error(nil)
			for _, p := range preds {
				if want, wantErr = p.Test(tup, params); !want || wantErr != nil {
					want = false
					break
				}
			}
			if err := shape.Fit(rec); err != nil {
				t.Errorf("seed %d: %v does not parse: %v", seed, tup, err)
				return false
			}
			got, gotErr := f.Test(rec, &shape)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("seed %d: %v on %v with %v: compiled says %v, %v; Pred.Test says %v, %v", seed, preds, tup, params, got, gotErr, want, wantErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if compiled < 1000 || viewed < 500 {
		t.Errorf("%d compiled terms and %d viewed ones: the generator is not covering both", compiled, viewed)
	}
}

// BenchmarkRecordFilter tests a lineitem-shaped record against
// "l_shipdate < c and l_quantity between 1 and 50", compiled and through
// the view adapter (two predicates of as many compares that name a second
// column where the compiled ones name a constant): ns and allocations
// per record.
func BenchmarkRecordFilter(b *testing.B) {
	rec := types.EncodeTuple(nil, types.Tuple{
		types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4),
		types.NewFloat(17), types.NewFloat(21168.23), types.NewFloat(0.04), types.NewFloat(0.02),
		types.NewString("N"), types.NewString("O"),
		types.NewDate(9500), types.NewDate(9530), types.NewDate(9510),
		types.NewString("DELIVER IN PERSON"), types.NewString("TRUCK"), types.NewString("carefully final deposits"),
	})
	preds := []Pred{
		&CmpPred{Op: sql.OpLt, Left: &ColExpr{Idx: 10}, Right: &ParamExpr{Name: "d"}},
		&BetweenPred{Expr: &ColExpr{Idx: 4}, Lo: &ConstExpr{Val: types.NewFloat(1)}, Hi: &ConstExpr{Val: types.NewFloat(50)}},
	}
	params := Params{"d": types.NewDate(9600)}
	run := func(b *testing.B, preds []Pred) {
		f := CompileFilter(preds, params)
		var shape types.Shape
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := shape.Fit(rec); err != nil {
				b.Fatal(err)
			}
			if ok, err := f.Test(rec, &shape); !ok || err != nil {
				b.Fatal(ok, err)
			}
		}
	}
	b.Run("compiled", func(b *testing.B) { run(b, preds) })
	b.Run("adapter", func(b *testing.B) {
		run(b, []Pred{
			&CmpPred{Op: sql.OpLt, Left: &ColExpr{Idx: 10}, Right: &ColExpr{Idx: 11}},
			&BetweenPred{Expr: &ColExpr{Idx: 4}, Lo: &ColExpr{Idx: 6}, Hi: &ConstExpr{Val: types.NewFloat(50)}},
		})
	})
}
