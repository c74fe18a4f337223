package session

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/reopt"
	"repro/internal/types"
)

func TestSlowQueryWarning(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	var buf bytes.Buffer
	m.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	s := m.Session()
	opts := Options{
		Mode:   reopt.ModeFull,
		Params: map[string]types.Value{"cut": types.NewFloat(500)},
	}

	// Below the threshold: silence.
	m.SetSlowQueryThreshold(time.Hour)
	if _, err := s.Exec(context.Background(), joinQuery, opts); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast query warned: %s", buf.String())
	}

	// Manager-wide threshold of 1ns: every statement warns, with the
	// structured fields attached.
	m.SetSlowQueryThreshold(time.Nanosecond)
	res, err := s.Exec(context.Background(), joinQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slow query", res.Query, "duration=", "switches=", "spill_bytes="} {
		if !strings.Contains(out, want) {
			t.Errorf("warning missing %q: %s", want, out)
		}
	}

	// DML takes the same path.
	buf.Reset()
	m.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := s.Exec(context.Background(),
		"insert into a (a_pk, a_fk, a_grp, a_val) values (100002, 1, 1, 1.0)", Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slow query") {
		t.Errorf("slow DML did not warn: %s", buf.String())
	}
}
