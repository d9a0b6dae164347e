package wal

import (
	"go/build"
	"strings"
	"testing"
)

// fakeStore is a Durable that records the journal it was given.
type fakeStore struct{ emit func(Record) uint64 }

func (f *fakeStore) SetJournal(emit func(Record) uint64) { f.emit = emit }

// TestAttachSkipsNilEntries: Attach wires every non-nil store to Emit
// and skips nil entries, so callers can pass nil for unwired stores.
func TestAttachSkipsNilEntries(t *testing.T) {
	l, _ := openManual(t, t.TempDir(), 0, nil)
	defer l.Close()
	j := NewJournal(l)
	var tapped []Record
	j.SetTap(func(r Record) { tapped = append(tapped, r) })
	a, b := &fakeStore{}, &fakeStore{}
	j.Attach(nil, a, nil, b, nil)
	if a.emit == nil || b.emit == nil {
		t.Fatal("non-nil store left without a journal")
	}
	if lsn := a.emit(testRecord(0)); lsn != 1 {
		t.Fatalf("first emit LSN = %d, want 1", lsn)
	}
	if lsn := b.emit(testRecord(1)); lsn != 2 {
		t.Fatalf("second emit LSN = %d, want 2", lsn)
	}
	if len(tapped) != 2 || tapped[0].LSN != 1 || tapped[1].LSN != 2 {
		t.Fatalf("tap saw %+v", tapped)
	}
	j.Attach() // no stores: a no-op
}

// TestNoDomainImports keeps wal a store-agnostic log: the stores encode
// their own records, so the package may import no repro/internal
// package other than faults.
func TestNoDomainImports(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasPrefix(imp, "repro/internal/") && imp != "repro/internal/faults" {
			t.Errorf("wal imports %s; only repro/internal/faults is allowed", imp)
		}
	}
}
