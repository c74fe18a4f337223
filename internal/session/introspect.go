package session

import (
	"repro/internal/obs"
	"repro/internal/types"
)

// registerIntrospection wires the engine's live state into the SQL
// front door: the mqr virtual schema (queries, operators, txns,
// metrics, trace) plus the continuous-suboptimality gauges. Providers
// run inside whatever query scans them, so they take only their own
// narrow locks (progress registry, trace ring, txn manager, metrics
// registry) — never schemaMu or the catalog lock, both of which a
// running query can hold.
func (m *Manager) registerIntrospection() {
	m.reg.NewGaugeFunc("reopt_live_suboptimality",
		"Largest continuous suboptimality score across running queries (1 = on estimate).",
		m.prog.MaxScore)
	m.reg.NewGaugeFunc("mqr_live_queries",
		"Queries currently executing.",
		func() float64 { return float64(m.prog.NumRunning()) })

	str := func(n string) types.Column { return types.Column{Name: n, Kind: types.KindString} }
	num := func(n string) types.Column { return types.Column{Name: n, Kind: types.KindFloat} }
	cnt := func(n string) types.Column { return types.Column{Name: n, Kind: types.KindInt} }

	mustVirtual(m, "mqr.queries",
		types.NewSchema(
			str("query"), cnt("session"), str("tenant"), str("sql"), str("state"),
			cnt("elapsed_ms"), num("est_cost"), num("cost"), num("fraction"),
			num("score"), cnt("checkpoints"), cnt("switches"), num("spill_bytes"),
			cnt("preempts"), cnt("fed_back")),
		func() []types.Tuple {
			var out []types.Tuple
			for _, p := range append(m.prog.Running(), m.prog.Recent()...) {
				s := p.Snapshot(false)
				out = append(out, types.Tuple{
					types.NewString(s.Query), types.NewInt(s.Session),
					types.NewString(s.Tenant),
					types.NewString(s.SQL), types.NewString(s.State),
					types.NewInt(s.ElapsedMS), types.NewFloat(s.EstCost),
					types.NewFloat(s.Cost), types.NewFloat(s.Fraction),
					types.NewFloat(s.Score), types.NewInt(s.Checkpoints),
					types.NewInt(s.Switches), types.NewFloat(s.SpillBytes),
					types.NewInt(s.Preempts), types.NewInt(b2i(s.FedBack)),
				})
			}
			return out
		})

	mustVirtual(m, "mqr.operators",
		types.NewSchema(
			str("query"), cnt("op"), cnt("depth"), str("label"), str("detail"),
			str("state"), num("est_rows"), cnt("rows"), num("spill_bytes")),
		func() []types.Tuple {
			var out []types.Tuple
			for _, p := range append(m.prog.Running(), m.prog.Recent()...) {
				s := p.Snapshot(true)
				for _, o := range s.Operators {
					out = append(out, types.Tuple{
						types.NewString(s.Query), types.NewInt(int64(o.ID)),
						types.NewInt(int64(o.Depth)), types.NewString(o.Label),
						types.NewString(o.Detail), types.NewString(o.State),
						types.NewFloat(o.EstRows), types.NewInt(o.Rows),
						types.NewFloat(o.SpillBytes),
					})
				}
			}
			return out
		})

	mustVirtual(m, "mqr.txns",
		types.NewSchema(cnt("txn"), str("kind"), cnt("writes")),
		func() []types.Tuple {
			var out []types.Tuple
			for _, t := range m.cat.Txns().ActiveTxns() {
				kind := "write"
				if t.Reader {
					kind = "read"
				}
				out = append(out, types.Tuple{
					types.NewInt(int64(t.ID)), types.NewString(kind),
					types.NewInt(int64(t.Writes)),
				})
			}
			return out
		})

	mustVirtual(m, "mqr.metrics",
		types.NewSchema(str("name"), str("type"), num("value")),
		func() []types.Tuple {
			samples := m.reg.Samples()
			out := make([]types.Tuple, len(samples))
			for i, s := range samples {
				out[i] = types.Tuple{
					types.NewString(s.Name), types.NewString(s.Type),
					types.NewFloat(s.Value),
				}
			}
			return out
		})

	mustVirtual(m, "mqr.trace",
		types.NewSchema(cnt("seq"), str("query"), str("kind"), str("msg"), cnt("dropped")),
		func() []types.Tuple {
			events := m.engTrace.Events()
			dropped := int64(m.engTrace.Dropped())
			out := make([]types.Tuple, len(events))
			for i, e := range events {
				out[i] = types.Tuple{
					types.NewInt(int64(e.Seq)), types.NewString(e.Query),
					types.NewString(e.Kind), types.NewString(e.Msg),
					types.NewInt(dropped),
				}
			}
			return out
		})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// mustVirtual registers one system table; the names are engine-owned,
// so a failure is a programming error.
func mustVirtual(m *Manager, name string, schema *types.Schema, provider func() []types.Tuple) {
	if _, err := m.cat.RegisterVirtual(name, schema, provider); err != nil {
		panic("session: " + err.Error())
	}
}

// ProgressSnapshots returns point-in-time progress for every running
// query (withOps includes per-operator rows), sorted by tag, plus the
// recently finished ring when includeRecent is set. The server's
// /progress endpoint and the richer /status both read through here.
func (m *Manager) ProgressSnapshots(withOps, includeRecent bool) []obs.ProgressSnapshot {
	ps := m.prog.Running()
	if includeRecent {
		ps = append(ps, m.prog.Recent()...)
	}
	out := make([]obs.ProgressSnapshot, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Snapshot(withOps))
	}
	sortSnapshots(out)
	return out
}

func sortSnapshots(s []obs.ProgressSnapshot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Query < s[j-1].Query; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
