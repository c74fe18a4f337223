// Package plancache caches optimized query plans so re-submitted SQL
// skips analysis and join enumeration. Entries are keyed on the
// normalized statement text plus the host-variable signature — the
// engine's plans are parameter-independent (host variables get a default
// selectivity at optimize time and bind at execution), so one cached
// plan serves every binding of the same parameterized query — and on an
// optimizer fingerprint (memory budget, cost weights, ablation flags)
// so differently-configured sessions never share a plan shaped for the
// wrong cost model.
//
// Every hit hands out a deep clone of the pristine plan: the dispatcher
// mutates plan annotations (improved estimates, memory grants) and the
// tree itself (SCIA collector insertion) during execution, so the cached
// original must never be executed directly.
//
// Invalidation is versioned, not evented, and scoped to what a plan
// actually references: entries record the catalog's schema version plus
// the per-table statistics version of every table in the plan's FROM
// list, and are dropped lazily when a lookup finds any of them moved.
// A committed write or ANALYZE on one table therefore invalidates only
// the plans that read it; CREATE/DROP TABLE and CREATE INDEX move the
// schema version and flush everything (cheap, rare, and renaming can
// change what any statement resolves to). Temp tables materialized by
// mid-query re-optimization bump neither — they are private to one
// query and would otherwise flush the cache on every plan switch. A
// planner reads the versions before it plans (Versions, then PutAt), so
// a commit that lands meanwhile leaves the entry stale.
//
// An entry can learn: a run that found its plan suspect re-plans the
// entry on the rows it observed (optimizer.Overlay, carried on the
// plan) and swaps it in with Replace, which keeps the replaced entry's
// versions — the overlay lives and dies with its entry.
package plancache

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Cache is a concurrency-safe LRU of optimized plans.
type Cache struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*entry
	lru       *list.List // front = most recent; elements hold keys
	schemaVer func() int64
	tableVer  func(name string) int64

	hits, misses, invalidations, evictions, feedbacks int64
}

// entry is one cached plan. Storing or replacing a plan makes a new
// entry, so a Ticket names exactly one plan.
type entry struct {
	res  *optimizer.Result
	vers Versions
	elem *list.Element
}

// Versions is the catalog state an entry is valid for: the schema
// version and the statistics version of every table the statement
// reads.
type Versions struct {
	schema int64
	tables map[string]int64
}

// Ticket names the entry a plan was served from or stored as. The zero
// Ticket names none.
type Ticket struct {
	key string
	e   *entry
}

// New returns a cache of at most capacity plans. schemaVer reports the
// catalog's structural version (CREATE/DROP TABLE, CREATE INDEX);
// tableVer reports one table's statistics version (bumped by ANALYZE and
// committed writes). Entries whose recorded versions lag either are
// invalid. Nil functions disable the corresponding check.
func New(capacity int, schemaVer func() int64, tableVer func(name string) int64) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	if schemaVer == nil {
		schemaVer = func() int64 { return 0 }
	}
	if tableVer == nil {
		tableVer = func(string) int64 { return 0 }
	}
	return &Cache{
		cap:       capacity,
		entries:   make(map[string]*entry),
		lru:       list.New(),
		schemaVer: schemaVer,
		tableVer:  tableVer,
	}
}

// Get returns a deep clone of the cached plan for key, or nil on a miss.
// A stale entry (catalog statistics changed since it was stored) counts
// as a miss and is dropped.
func (c *Cache) Get(key string) *optimizer.Result {
	res, _ := c.Lookup(key)
	return res
}

// Lookup is Get that also returns the Ticket of the entry it served.
func (c *Cache) Lookup(key string) (*optimizer.Result, Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, Ticket{}
	}
	if !c.validLocked(e) {
		c.removeLocked(key, e)
		c.invalidations++
		c.misses++
		return nil, Ticket{}
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return cloneResult(e.res), Ticket{key: key, e: e}
}

// Versions reads the catalog versions a plan of stmt is valid for. A
// caller that plans reads them first: a commit that lands while the
// optimizer runs then leaves the stored entry stale, instead of a plan
// of the old statistics labelled with the new versions.
func (c *Cache) Versions(stmt *sql.SelectStmt) Versions {
	v := Versions{schema: c.schemaVer()}
	if stmt == nil {
		return v
	}
	v.tables = make(map[string]int64, len(stmt.From))
	for _, ref := range stmt.From {
		name := strings.ToLower(ref.Name)
		v.tables[name] = c.tableVer(name)
	}
	return v
}

// Put stores a pristine plan under key, valid for the catalog versions
// read now: for callers with no writer running beside the optimizer.
func (c *Cache) Put(key string, res *optimizer.Result) {
	var stmt *sql.SelectStmt
	if res.Query != nil {
		stmt = res.Query.Stmt
	}
	c.PutAt(key, res, c.Versions(stmt))
}

// PutAt stores a pristine plan under key, valid for vers, and returns
// its Ticket. The cache keeps its own clone, so the caller may execute
// (and thereby mutate) res afterwards.
func (c *Cache) PutAt(key string, res *optimizer.Result, vers Versions) Ticket {
	e := &entry{res: cloneResult(res), vers: vers}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		e.elem = old.elem
		c.entries[key] = e
		c.lru.MoveToFront(e.elem)
		return Ticket{key: key, e: e}
	}
	for len(c.entries) >= c.cap {
		back := c.lru.Back()
		if back == nil {
			break
		}
		k := back.Value.(string)
		c.removeLocked(k, c.entries[k])
		c.evictions++
	}
	e.elem = c.lru.PushFront(key)
	c.entries[key] = e
	return Ticket{key: key, e: e}
}

// Current reports whether t still names the cached entry for its key
// and that entry's versions still match the catalog.
func (c *Cache) Current(t Ticket) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[t.key]
	return ok && e == t.e && c.validLocked(e)
}

// Replace swaps the plan of the entry t names for res, keeping that
// entry's versions, and reports whether it did. It does nothing once
// the entry has been replaced, re-stored, evicted or dropped: the plan
// res was derived from is no longer the one cached.
func (c *Cache) Replace(t Ticket, res *optimizer.Result) bool {
	clone := cloneResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.entries[t.key]
	if !ok || old != t.e {
		return false
	}
	c.entries[t.key] = &entry{res: clone, vers: old.vers, elem: old.elem}
	c.feedbacks++
	return true
}

// validLocked reports whether an entry's recorded versions still match
// the catalog: the schema version, and each referenced table's version.
func (c *Cache) validLocked(e *entry) bool {
	if e.vers.schema != c.schemaVer() {
		return false
	}
	for name, ver := range e.vers.tables {
		if c.tableVer(name) != ver {
			return false
		}
	}
	return true
}

func (c *Cache) removeLocked(key string, e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, key)
}

// Stats reports cache traffic.
type Stats struct {
	Entries       int
	Hits          int64
	Misses        int64
	Invalidations int64 // misses caused by a statistics-version change
	Evictions     int64
	// Feedbacks counts entries re-planned from the rows a run observed.
	Feedbacks int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Feedbacks:     c.feedbacks,
	}
}

// cloneResult copies the parts of an optimizer result that execution
// mutates: the plan tree (annotations and collector insertion) and the
// join order slice. The analyzed Query is shared — the dispatcher only
// reads it (predicate ASTs, relation bindings) when generating
// remainder SQL.
func cloneResult(res *optimizer.Result) *optimizer.Result {
	return &optimizer.Result{
		Root:            plan.Clone(res.Root),
		Query:           res.Query,
		Order:           append([]int(nil), res.Order...),
		PlansConsidered: res.PlansConsidered,
		Overlay:         res.Overlay,
	}
}

// Key builds the cache key for a parsed statement: normalized SQL text
// (rendered from the AST, so whitespace and case differences in the
// source collapse), the sorted host-variable signature, and the
// caller's optimizer fingerprint.
func Key(stmt *sql.SelectStmt, fingerprint string) string {
	vars := HostVars(stmt)
	return stmt.SQL() + "|vars=" + strings.Join(vars, ",") + "|" + fingerprint
}

// HostVars returns the sorted set of host-variable names a statement
// binds — the parameter signature of a prepared query.
func HostVars(stmt *sql.SelectStmt) []string {
	seen := map[string]bool{}
	var walkExpr func(e sql.Expr)
	walkExpr = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.HostVar:
			seen[x.Name] = true
		case *sql.BinaryExpr:
			walkExpr(x.Left)
			walkExpr(x.Right)
		case *sql.AggExpr:
			if x.Arg != nil {
				walkExpr(x.Arg)
			}
		}
	}
	for _, item := range stmt.Select {
		walkExpr(item.Expr)
	}
	for _, p := range stmt.Where {
		for _, e := range sql.Operands(p) {
			walkExpr(e)
		}
	}
	for _, g := range stmt.GroupBy {
		walkExpr(g)
	}
	for _, o := range stmt.OrderBy {
		walkExpr(o.Expr)
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}
