package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// opBytes renders the first n ops of every client of a workload.
func opBytes(t *testing.T, wl *workload, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, src := range wl.sources(seed, privateKeyBase) {
		for i := 0; i < n; i++ {
			if err := enc.Encode(src.next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameOps(t *testing.T) {
	for _, wl := range workloads() {
		a, b := opBytes(t, wl, 7, 100), opBytes(t, wl, 7, 100)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", wl.Name)
		}
	}
}

// The tpcd statements have no parameters, so there the seed draws the
// order of the cycle; the other two workloads draw host-variable values
// and written values from it as well.
func TestDifferentSeedDifferentOps(t *testing.T) {
	for _, wl := range workloads() {
		if bytes.Equal(opBytes(t, wl, 1, 100), opBytes(t, wl, 2, 100)) {
			t.Errorf("%s: seeds 1 and 2 give the same ops", wl.Name)
		}
	}
}

func TestClientsDrawDifferentStreams(t *testing.T) {
	srcs := workloadByName("short_lookup").sources(1, privateKeyBase)
	var a, b []string
	for i := 0; i < 60; i++ {
		a = append(a, srcs[0].next().Ref)
		b = append(b, srcs[1].next().Ref)
	}
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("both clients issue the same parameter sequence")
	}
}

func TestEveryOpIsDeclaredAndHasAReference(t *testing.T) {
	for _, wl := range workloads() {
		if wl.Clients > 2 {
			t.Errorf("%s: %d clients on a 2-core reference box", wl.Name, wl.Clients)
		}
		if got := len(wl.sources(1, privateKeyBase)); got != wl.Clients {
			t.Errorf("%s: %d sources for %d clients", wl.Name, got, wl.Clients)
		}
		classes := map[string]bool{}
		for _, c := range wl.Classes {
			classes[c] = true
		}
		refs := map[string]bool{}
		for _, o := range wl.refOps() {
			refs[o.Ref] = true
		}
		seen := map[string]bool{}
		for _, src := range wl.sources(3, privateKeyBase) {
			for i := 0; i < 50*src.period(); i++ {
				o := src.next()
				seen[o.Class] = true
				if !classes[o.Class] {
					t.Fatalf("%s: undeclared class %q", wl.Name, o.Class)
				}
				if o.Ref != "" && !refs[o.Ref] {
					t.Fatalf("%s: op %s has no reference %q", wl.Name, o.Class, o.Ref)
				}
				if o.Ref == "" && len(o.Affected) != len(o.Reqs) {
					t.Fatalf("%s: write op checks %d of %d requests", wl.Name, len(o.Affected), len(o.Reqs))
				}
			}
		}
		for c := range classes {
			if !seen[c] {
				t.Errorf("%s: class %s never issued", wl.Name, c)
			}
		}
	}
}

// The writer keeps the table's size steady: after the first writeLag
// transactions every one deletes as many rows as it inserts, and each
// deletes exactly the range inserted writeLag transactions earlier.
func TestWriterInsertsAndDeletesBalance(t *testing.T) {
	w := &writer{rng: rand.New(rand.NewSource(1)), base: privateKeyBase}
	var inserted, deleted int64
	vacuums := 0
	for i := 0; i < 4*vacuumEvery; i++ {
		o := w.next()
		inserted += o.Affected[2]
		deleted += o.Affected[3]
		if o.Vacuum {
			vacuums++
		}
	}
	if want := int64(writeLag * writeBatch); inserted-deleted != want {
		t.Errorf("%d rows outstanding, want %d", inserted-deleted, want)
	}
	if vacuums != 4 {
		t.Errorf("%d vacuums in %d transactions, want 4", vacuums, 4*vacuumEvery)
	}
}
