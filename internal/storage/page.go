package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted page layout:
//
//	bytes 0..2   u16 slot count
//	bytes 2..4   u16 free-space end (offset of the lowest data byte)
//	bytes 4..    slot directory, u16 data offset per slot (0 = deleted)
//	...free space...
//	data region, growing downward from PageSize
//
// Each slot's data begins with a u16 record length followed by the record
// bytes. Deleting a record zeroes its slot entry and leaves a hole;
// Compact closes the holes. A slot number is never handed out twice, so
// an RID that named a deleted record names nothing, forever.

const pageHeaderSize = 4

// SlottedPage wraps a page buffer with record-level operations. It does
// not own I/O; callers read and write the underlying buffer through the
// buffer pool.
type SlottedPage struct {
	buf []byte
}

// NewSlottedPage formats buf (of PageSize bytes) as an empty slotted page.
func NewSlottedPage(buf []byte) *SlottedPage {
	p := &SlottedPage{buf: buf}
	p.setNumSlots(0)
	p.setFreeEnd(uint16(len(buf)))
	return p
}

// LoadSlottedPage wraps an already-formatted buffer.
func LoadSlottedPage(buf []byte) *SlottedPage {
	return &SlottedPage{buf: buf}
}

func (p *SlottedPage) numSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[0:2]))
}

func (p *SlottedPage) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n))
}

func (p *SlottedPage) freeEnd() uint16 {
	return binary.LittleEndian.Uint16(p.buf[2:4])
}

func (p *SlottedPage) setFreeEnd(v uint16) {
	binary.LittleEndian.PutUint16(p.buf[2:4], v)
}

func (p *SlottedPage) slotOffset(i int) uint16 {
	return binary.LittleEndian.Uint16(p.buf[pageHeaderSize+2*i : pageHeaderSize+2*i+2])
}

func (p *SlottedPage) setSlotOffset(i int, off uint16) {
	binary.LittleEndian.PutUint16(p.buf[pageHeaderSize+2*i:pageHeaderSize+2*i+2], off)
}

// NumRecords returns the number of live records on the page.
func (p *SlottedPage) NumRecords() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if p.slotOffset(i) != 0 {
			n++
		}
	}
	return n
}

// NumSlots returns the number of slots, live or deleted.
func (p *SlottedPage) NumSlots() int { return p.numSlots() }

// FreeSpace returns the bytes available for one more record's data plus
// its slot directory entry.
func (p *SlottedPage) FreeSpace() int {
	dirEnd := pageHeaderSize + 2*p.numSlots()
	free := int(p.freeEnd()) - dirEnd
	if free < 0 {
		return 0
	}
	return free
}

// DataBytes returns the size of the data region: live records with their
// length prefixes, plus the holes deleted records left.
func (p *SlottedPage) DataBytes() int { return len(p.buf) - int(p.freeEnd()) }

// CanFit reports whether a record of n bytes fits on the page.
func (p *SlottedPage) CanFit(n int) bool {
	// 2 bytes slot entry + 2 bytes length prefix + data.
	return p.FreeSpace() >= n+4
}

// Insert appends a record and returns its slot number.
func (p *SlottedPage) Insert(rec []byte) (int, error) {
	slot, dst, err := p.Reserve(len(rec))
	if err != nil {
		return 0, err
	}
	copy(dst, rec)
	return slot, nil
}

// Reserve appends a record of n bytes whose contents the caller fills in
// through the returned slice, which aliases the page and has capacity n.
// Heap appends encode into it directly instead of building the record
// elsewhere and copying it in.
func (p *SlottedPage) Reserve(n int) (int, []byte, error) {
	if !p.CanFit(n) {
		return 0, nil, fmt.Errorf("storage: record of %d bytes does not fit (free %d)", n, p.FreeSpace())
	}
	end := int(p.freeEnd())
	start := end - n - 2
	binary.LittleEndian.PutUint16(p.buf[start:start+2], uint16(n))
	slot := p.numSlots()
	p.setNumSlots(slot + 1)
	p.setSlotOffset(slot, uint16(start))
	p.setFreeEnd(uint16(start))
	return slot, p.buf[start+2 : end : end], nil
}

// Record returns the bytes of the record in the given slot. The returned
// slice aliases the page buffer; callers must copy before retaining.
func (p *SlottedPage) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.numSlots())
	}
	rec := p.live(slot)
	if rec == nil {
		return nil, fmt.Errorf("storage: slot %d is deleted", slot)
	}
	return rec, nil
}

// live is Record for loops over a page's own slots: slot must be in
// range, and a deleted slot yields nil instead of a formatted error.
func (p *SlottedPage) live(slot int) []byte {
	off := p.slotOffset(slot)
	if off == 0 {
		return nil
	}
	l := binary.LittleEndian.Uint16(p.buf[off : off+2])
	return p.buf[off+2 : off+2+l]
}

// Delete marks a slot as deleted. The record's bytes become a hole until
// Compact; the slot entry stays, so the slot number is not reused.
func (p *SlottedPage) Delete(slot int) error {
	if slot < 0 || slot >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.numSlots())
	}
	p.setSlotOffset(slot, 0)
	return nil
}

// Compact slides the live records to the end of the page, closing the
// holes deleted records left, so that FreeSpace counts every byte not
// holding a live record or a slot entry. Records move; slot numbers do
// not. Slices obtained from Record before the call are invalid after it.
func (p *SlottedPage) Compact() {
	old := append([]byte(nil), p.buf...)
	end := len(p.buf)
	for i, n := 0, p.numSlots(); i < n; i++ {
		off := int(p.slotOffset(i))
		if off == 0 {
			continue
		}
		l := 2 + int(binary.LittleEndian.Uint16(old[off:off+2]))
		end -= l
		copy(p.buf[end:], old[off:off+l])
		p.setSlotOffset(i, uint16(end))
	}
	p.setFreeEnd(uint16(end))
}
