package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/server"
	"repro/internal/tpcd"
)

// op is one closed-loop request: a single statement, or for a write
// transaction its whole begin … commit sequence. Latency runs from just
// before the first Client.Exec to just after the last returns.
type op struct {
	Class string                `json:"class"`
	Reqs  []server.QueryRequest `json:"reqs"`
	// Ref keys the reference answer of a read op ("" for a write op).
	Ref string `json:"ref,omitempty"`
	// Affected is the expected rows_affected of each request of a write
	// op, in order.
	Affected []int64 `json:"affected,omitempty"`
	// Vacuum asks the issuing client to call Catalog.Vacuum after the op
	// (outside its latency): the server has no vacuum endpoint.
	Vacuum bool `json:"vacuum,omitempty"`
	// Complex marks the paper's complex class (four or more joins), the
	// queries reopt.full_over_off_wall is taken over.
	Complex bool `json:"complex,omitempty"`
}

// source is one client's seeded, endless op stream. period is how many
// ops it takes to visit each of its classes once.
type source interface {
	next() op
	period() int
}

// privateKeyBase is where the writer's inserted order keys start: far
// above anything the generator produced, so inserts never collide with
// loaded rows and the rows carry no lineitems.
const privateKeyBase = int64(1) << 40

// workload is one traffic mix. Everything the engine sees is the SQL
// and host-variable values the sources emit.
type workload struct {
	Name    string
	Why     string
	Classes []string
	// Clients is the closed-loop client count (never above nproc).
	Clients int
	// TraceOps is how many ops per class the traced pass issues.
	TraceOps int
	// AllHits: warm-up must reach plan-cache steady state, i.e. every
	// measured op answers cache_hit=true.
	AllHits bool
	// Degree is the intra-query parallelism its reads ask for.
	Degree int
	// Writes: one client commits write transactions.
	Writes bool
	// sources builds the per-client op streams. keyBase is the first
	// private order key the writer (if any) may insert at.
	sources func(seed, keyBase int64) []source
	// refOps lists one read op per distinct reference answer.
	refOps func() []op
}

func workloads() []*workload {
	return []*workload{tpcdWorkload("tpcd_serial", 1), tpcdWorkload("tpcd_parallel", 2), shortLookup(), mixedRW()}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// cycle issues a fixed list of ops round-robin, in an order drawn from
// the seed: the statements have no parameters, so their order (which
// query finds whose pages in the buffer pool) is the input that varies.
type cycle struct {
	ops []op
	i   int
}

func newCycle(ops []op, seed int64) *cycle {
	c := &cycle{ops: append([]op(nil), ops...)}
	rand.New(rand.NewSource(seed)).Shuffle(len(c.ops), func(i, j int) { c.ops[i], c.ops[j] = c.ops[j], c.ops[i] })
	return c
}

func (c *cycle) period() int { return len(c.ops) }

func (c *cycle) next() op {
	o := c.ops[c.i%len(c.ops)]
	c.i++
	return o
}

func tpcdOp(q tpcd.Query, class string, degree int) op {
	req := server.QueryRequest{SQL: strings.TrimSpace(q.SQL), Mode: "full"}
	if degree > 1 {
		req.Parallel = degree
	}
	return op{Class: class, Reqs: []server.QueryRequest{req}, Ref: q.Name, Complex: q.Class == tpcd.Complex}
}

func tpcdWorkload(name string, degree int) *workload {
	var ops []op
	var classes []string
	for _, q := range tpcd.Queries() {
		ops = append(ops, tpcdOp(q, q.Name, degree))
		classes = append(classes, q.Name)
	}
	why := "The paper's seven TPC-D queries in real milliseconds: data far above the buffer pool, joins spill, stale statistics make Q5 re-allocate; storage, types, exec, reopt and scia do the work."
	if degree > 1 {
		why = "The same seven queries at parallel degree 2: the only workload with exchange gathers on the blocking path, so a chunked-channel fix should move this one alone."
	}
	return &workload{
		Name: name, Why: why, Classes: classes,
		Clients: 1, TraceOps: 5, AllHits: true, Degree: degree,
		sources: func(seed, _ int64) []source { return []source{newCycle(ops, seed)} },
		refOps:  func() []op { return ops },
	}
}

// The short_lookup statements touch only region, nation, supplier and
// customer, which together fit in the buffer pool.
const (
	sqlNationRegion = `select n_name, r_name from nation, region
where nation.n_regionkey = region.r_regionkey and r_name = :r`
	sqlSupplierTop = `select s_suppkey, s_name, s_acctbal from supplier
where s_nationkey = :n order by s_acctbal desc limit 5`
	sqlNationCount = `select n_regionkey, count(*) as nations from nation
where n_nationkey >= :k group by n_regionkey`
	sqlSupplierNation = `select s_name, n_name from supplier, nation
where supplier.s_nationkey = nation.n_nationkey and s_acctbal > :b`
	sqlJoin4 = `select c_name, s_name, n_name, r_name from customer, supplier, nation, region
where customer.c_nationkey = supplier.s_nationkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and c_custkey = :c`
)

// lookupKind is one parameterised statement with its small seeded
// domain; references are computed once per (kind, value).
type lookupKind struct {
	class   string
	ref     string // reference-key prefix; join4.warm and .cold share one
	sql     string
	param   string
	domain  []string
	noCache bool
}

func lookupKinds() []lookupKind {
	regions := []string{"string:AFRICA", "string:AMERICA", "string:ASIA", "string:EUROPE", "string:MIDDLE EAST"}
	var nations, bals, custs []string
	for n := 0; n < 25; n++ {
		nations = append(nations, fmt.Sprintf("int:%d", n))
	}
	for b := 8000; b <= 8700; b += 100 {
		bals = append(bals, fmt.Sprintf("float:%d", b))
	}
	for c := 1; c <= 64; c++ {
		custs = append(custs, fmt.Sprintf("int:%d", c))
	}
	return []lookupKind{
		{class: "lookup.nation_region", ref: "nation_region", sql: sqlNationRegion, param: "r", domain: regions},
		{class: "lookup.supplier_top", ref: "supplier_top", sql: sqlSupplierTop, param: "n", domain: nations},
		{class: "lookup.nation_count", ref: "nation_count", sql: sqlNationCount, param: "k", domain: []string{"int:0", "int:5", "int:10", "int:15", "int:20"}},
		{class: "lookup.supplier_nation", ref: "supplier_nation", sql: sqlSupplierNation, param: "b", domain: bals},
		{class: "join4.warm", ref: "join4", sql: sqlJoin4, param: "c", domain: custs},
		{class: "join4.cold", ref: "join4", sql: sqlJoin4, param: "c", domain: custs, noCache: true},
	}
}

func (k lookupKind) op(value string) op {
	return op{
		Class: k.class,
		Ref:   k.ref + "|" + value,
		Reqs: []server.QueryRequest{{
			SQL: k.sql, Mode: "full", NoCache: k.noCache,
			Params: map[string]string{k.param: value},
		}},
	}
}

// lookups cycles through the kinds, drawing each parameter from the
// client's seeded stream.
type lookups struct {
	kinds []lookupKind
	rng   *rand.Rand
	i     int
}

func (l *lookups) period() int { return len(l.kinds) }

func (l *lookups) next() op {
	k := l.kinds[l.i%len(l.kinds)]
	l.i++
	return k.op(k.domain[l.rng.Intn(len(k.domain))])
}

func shortLookup() *workload {
	kinds := lookupKinds()
	var classes []string
	for _, k := range kinds {
		classes = append(classes, k.class)
	}
	return &workload{
		Name:    "short_lookup",
		Why:     "Sub-millisecond dimension-table statements from two clients: HTTP+JSON, session glue, parse, plan cache or optimizer, SCIA and admission dominate; a scan-path change must show nothing here.",
		Classes: classes, Clients: 2, TraceOps: 10, Degree: 1,
		sources: func(seed, _ int64) []source {
			out := make([]source, 2)
			for c := range out {
				out[c] = &lookups{kinds: kinds, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(c)))}
			}
			return out
		},
		refOps: func() []op {
			var out []op
			seen := map[string]bool{}
			for _, k := range kinds {
				for _, v := range k.domain {
					if o := k.op(v); !seen[o.Ref] {
						seen[o.Ref] = true
						out = append(out, o)
					}
				}
			}
			return out
		},
	}
}

// Writer transaction shape: one hot-row update, writeBatch inserts into
// a private key range, and a delete of the range inserted writeLag
// transactions earlier, so the table's size stays steady; a vacuum every
// vacuumEvery transactions sweeps the dead versions.
const (
	hotOrders   = 16
	writeBatch  = 4
	writeLag    = 8
	vacuumEvery = 16
	keyStride   = 100
)

// writer emits write_txn ops.
type writer struct {
	rng  *rand.Rand
	base int64
	txn  int64
}

func (w *writer) period() int { return 1 }

func (w *writer) next() op {
	n := w.txn
	w.txn++
	r := w.rng
	price := func() float64 { return 1000 + float64(r.Intn(40000))/100 }
	upd := fmt.Sprintf("update orders set o_totalprice = %.2f where o_orderkey = %d", price(), 1+r.Intn(hotOrders))
	vals := make([]string, writeBatch)
	first := w.base + n*keyStride
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d, 'O', %.2f, date '1996-%02d-%02d', '1-URGENT', 0)",
			first+int64(i), 1+r.Intn(100), price(), 1+r.Intn(12), 1+r.Intn(28))
	}
	ins := "insert into orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice," +
		" o_orderdate, o_orderpriority, o_shippriority) values " + strings.Join(vals, ", ")
	old := w.base + (n-writeLag)*keyStride
	del := fmt.Sprintf("delete from orders where o_orderkey >= %d and o_orderkey < %d", old, old+keyStride)
	deleted := int64(writeBatch)
	if n < writeLag {
		deleted = 0 // the range does not exist yet
	}
	o := op{Class: "write_txn", Vacuum: w.txn%vacuumEvery == 0}
	for _, s := range []string{"begin", upd, ins, del, "commit"} {
		o.Reqs = append(o.Reqs, server.QueryRequest{SQL: s})
	}
	// An update writes two row versions (delete + insert); commit
	// reports the transaction's total.
	o.Affected = []int64{0, 1, writeBatch, deleted, 2 + writeBatch + deleted}
	return o
}

func mixedRW() *workload {
	var reads []op
	classes := []string{"write_txn"}
	for _, name := range []string{"Q6", "Q3", "Q10"} {
		q, err := tpcd.ByName(name)
		if err != nil {
			panic(err) // the query set is fixed at compile time
		}
		reads = append(reads, tpcdOp(q, "read_"+name, 1))
		classes = append(classes, "read_"+name)
	}
	return &workload{
		Name:    "mixed_rw",
		Why:     "One writer (MVCC stamps, append, delete, vacuum, commit-time statistics, plan-cache invalidation) beside one snapshot reader of Q6/Q3/Q10: a tax on either side by the other shows here.",
		Classes: classes, Clients: 2, TraceOps: 5, Degree: 1, Writes: true,
		sources: func(seed, keyBase int64) []source {
			return []source{
				&writer{rng: rand.New(rand.NewSource(seed*1_000_003 + 7)), base: keyBase},
				newCycle(reads, seed),
			}
		},
		refOps: func() []op { return reads },
	}
}
