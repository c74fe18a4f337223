package plan

import "fmt"

// Clone deep-copies a plan tree's node structure and annotations. Shared
// immutable references — catalog tables, schemas, compiled predicates and
// the preserved SQL ASTs — are carried over by pointer: execution never
// mutates them, only the node wiring and the Est annotations, which the
// copy owns outright. The plan cache relies on this: it hands every
// execution a fresh tree whose estimates the dispatcher and the Memory
// Manager may scribble on, while the cached original stays pristine.
func Clone(n Node) Node {
	if n == nil {
		return nil
	}
	switch x := n.(type) {
	case *Scan:
		cp := *x
		cp.Key = x.Key.clone()
		return &cp
	case *HashJoin:
		cp := *x
		cp.Build = Clone(x.Build)
		cp.Probe = Clone(x.Probe)
		return &cp
	case *IndexJoin:
		cp := *x
		cp.Outer = Clone(x.Outer)
		return &cp
	case *Collector:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Filter:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Agg:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Project:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Sort:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Limit:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Exchange:
		cp := *x
		cp.Input = Clone(x.Input)
		return &cp
	case *Insert:
		cp := *x
		cp.Rows = append([][]Expr(nil), x.Rows...)
		return &cp
	case *Update:
		cp := *x
		cp.Filters = append([]Pred(nil), x.Filters...)
		cp.Set = append([]SetCol(nil), x.Set...)
		cp.Key = x.Key.clone()
		return &cp
	case *Delete:
		cp := *x
		cp.Filters = append([]Pred(nil), x.Filters...)
		cp.Key = x.Key.clone()
		return &cp
	default:
		panic(fmt.Sprintf("plan: Clone of unknown node %T", n))
	}
}

// clone copies a key range; nil stays nil.
func (k *KeyRange) clone() *KeyRange {
	if k == nil {
		return nil
	}
	cp := *k
	return &cp
}
