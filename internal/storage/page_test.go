package storage

import (
	"bytes"
	"testing"
)

func TestSlottedPageInsertAndFetch(t *testing.T) {
	p := NewSlottedPage(make([]byte, PageSize))
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("a longer record with more bytes")}
	for i, r := range recs {
		slot, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
		if slot != i {
			t.Errorf("Insert #%d got slot %d", i, slot)
		}
	}
	if p.NumRecords() != len(recs) {
		t.Errorf("NumRecords = %d", p.NumRecords())
	}
	for i, want := range recs {
		got, err := p.Record(i)
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Record(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestSlottedPageFill(t *testing.T) {
	p := NewSlottedPage(make([]byte, PageSize))
	rec := make([]byte, 100)
	n := 0
	for p.CanFit(len(rec)) {
		if _, err := p.Insert(rec); err != nil {
			t.Fatalf("Insert while CanFit: %v", err)
		}
		n++
	}
	if _, err := p.Insert(rec); err == nil {
		t.Error("Insert beyond capacity succeeded")
	}
	// 104 bytes/record (2 slot + 2 len + 100 data) in 8188 usable bytes.
	if want := (PageSize - pageHeaderSize) / 104; n != want {
		t.Errorf("fitted %d records, want %d", n, want)
	}
	// Page still intact after the failed insert.
	if p.NumRecords() != n {
		t.Errorf("NumRecords = %d after failed insert", p.NumRecords())
	}
}

func TestSlottedPageDelete(t *testing.T) {
	p := NewSlottedPage(make([]byte, PageSize))
	p.Insert([]byte("a"))
	p.Insert([]byte("b"))
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if p.NumRecords() != 1 {
		t.Errorf("NumRecords after delete = %d", p.NumRecords())
	}
	if _, err := p.Record(0); err == nil {
		t.Error("Record of deleted slot succeeded")
	}
	if got, err := p.Record(1); err != nil || string(got) != "b" {
		t.Errorf("Record(1) = %q, %v", got, err)
	}
	if err := p.Delete(99); err == nil {
		t.Error("Delete out of range succeeded")
	}
	if _, err := p.Record(-1); err == nil {
		t.Error("Record(-1) succeeded")
	}
}

func TestSlottedPageSurvivesReload(t *testing.T) {
	buf := make([]byte, PageSize)
	p := NewSlottedPage(buf)
	p.Insert([]byte("persistent"))
	q := LoadSlottedPage(buf)
	got, err := q.Record(0)
	if err != nil || string(got) != "persistent" {
		t.Errorf("reloaded Record(0) = %q, %v", got, err)
	}
}

func TestSlottedPageReserveFillsInPlace(t *testing.T) {
	buf := make([]byte, PageSize)
	p := NewSlottedPage(buf)
	slot, dst, err := p.Reserve(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 5 || cap(dst) != 5 {
		t.Fatalf("reserved slice has len %d cap %d, want 5 and 5", len(dst), cap(dst))
	}
	// Appending up to the capacity writes the page, not a copy.
	_ = append(dst[:0], "hello"...)
	if got, err := p.Record(slot); err != nil || string(got) != "hello" {
		t.Errorf("Record = %q, %v", got, err)
	}
	if _, _, err := p.Reserve(PageSize); err == nil {
		t.Error("oversize Reserve succeeded")
	}
}

func TestSlottedPageCompactKeepsSlotNumbers(t *testing.T) {
	p := NewSlottedPage(make([]byte, PageSize))
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 40+i%17) }
	n := 0
	for p.CanFit(len(rec(n))) {
		p.Insert(rec(n))
		n++
	}
	for i := 0; i < n; i += 3 {
		p.Delete(i)
	}
	if p.CanFit(500) {
		t.Fatal("holes counted as free space before Compact")
	}
	p.Compact()
	if !p.CanFit(500) {
		t.Errorf("FreeSpace = %d after Compact freed a third of the page", p.FreeSpace())
	}
	for i := 0; i < n; i++ {
		got, err := p.Record(i)
		if i%3 == 0 {
			if err == nil {
				t.Fatalf("deleted slot %d came back as %q", i, got)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, rec(i)) {
			t.Fatalf("slot %d = %q, %v after Compact", i, got, err)
		}
	}
	// New records take new slot numbers, never a deleted one.
	if slot, err := p.Insert([]byte("new")); err != nil || slot != n {
		t.Errorf("Insert after Compact took slot %d (%v), want %d", slot, err, n)
	}
}
