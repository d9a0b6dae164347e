package spool

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/mail"
	"repro/internal/wal"
)

var t0 = time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)

func chal(id string) Challenge {
	return Challenge{
		MsgID:   id,
		Token:   "tok-" + id,
		From:    mail.MustParseAddress("challenge@corp.example"),
		To:      mail.MustParseAddress("spoofed@victim.example"),
		Subject: "original subject",
		URL:     "http://cr.corp.example/challenge/tok-" + id,
		Size:    1800,
		Issued:  t0,
	}
}

func TestFoldLifecycle(t *testing.T) {
	s := NewState()
	s.ApplyEnqueue(chal("m1"), 1)
	s.ApplyEnqueue(chal("m2"), 2)
	if s.Len() != 2 {
		t.Fatalf("pending = %d", s.Len())
	}
	s.ApplyAttempt("m1", "tempfail", "451 try later", 1, t0.Add(15*time.Minute), 3)
	s.ApplyTerminal("m2", StatusSent, 1, 4)
	if s.Len() != 1 {
		t.Fatalf("pending after terminal = %d", s.Len())
	}
	if st, ok := s.Fate("m2"); !ok || st != StatusSent {
		t.Fatalf("fate(m2) = %v, %v", st, ok)
	}
	p := s.Pending()
	if len(p) != 1 || p[0].Challenge.MsgID != "m1" || p[0].Attempts != 1 || p[0].LastClass != "tempfail" {
		t.Fatalf("pending = %+v", p)
	}
}

func TestLSNGuardRejectsStaleReplay(t *testing.T) {
	s := NewState()
	s.ApplyEnqueue(chal("m1"), 1)
	s.ApplyAttempt("m1", "tempfail", "451", 2, t0.Add(time.Hour), 5)
	// Replaying an older attempt must not roll the item backwards.
	s.ApplyAttempt("m1", "tempfail", "451 older", 1, t0.Add(15*time.Minute), 3)
	if p := s.Pending(); p[0].Attempts != 2 || p[0].LSN != 5 {
		t.Fatalf("stale replay applied: %+v", p[0])
	}
	// A terminal fate guards against everything at or below its LSN.
	s.ApplyTerminal("m1", StatusBounced, 3, 6)
	s.ApplyEnqueue(chal("m1"), 2) // resurrection attempt
	if s.Len() != 0 {
		t.Fatal("terminal item resurrected by stale enqueue")
	}
	s.ApplyTerminal("m1", StatusSent, 9, 4) // stale conflicting fate
	if st, _ := s.Fate("m1"); st != StatusBounced {
		t.Fatalf("stale terminal overwrote fate: %v", st)
	}
}

func TestLSNZeroIsUnguarded(t *testing.T) {
	// Journal-dropped records (LSN 0) always apply: fail-open means the
	// in-memory state stays ahead of the journal, never behind it.
	s := NewState()
	s.ApplyEnqueue(chal("m1"), 7)
	s.ApplyAttempt("m1", "tempfail", "451", 1, t0.Add(time.Hour), 0)
	if p := s.Pending(); p[0].Attempts != 1 {
		t.Fatalf("unguarded attempt not applied: %+v", p[0])
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := NewState()
	s.ApplyEnqueue(chal("m1"), 1)
	s.ApplyEnqueue(chal("m2"), 2)
	s.ApplyAttempt("m1", "tempfail", "451 busy", 1, t0.Add(15*time.Minute), 3)
	s.ApplyTerminal("m2", StatusBounced, 1, 4)

	exp := s.Export()
	s2 := NewState()
	if err := s2.Import(exp); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(exp)
	b, _ := json.Marshal(s2.Export())
	if string(a) != string(b) {
		t.Fatalf("round trip diverged:\n%s\n%s", a, b)
	}
	// The guard state survives: replaying the already-applied records
	// over the import is a no-op.
	s2.ApplyAttempt("m1", "tempfail", "451 older", 0, t0, 2)
	if p := s2.Pending(); p[0].Attempts != 1 {
		t.Fatalf("import lost LSN guard: %+v", p[0])
	}
}

func TestImportRejectsBadData(t *testing.T) {
	s := NewState()
	if err := s.Import(ExportedState{Pending: []ExportedItem{{MsgID: "m", From: "not-an-address", To: "a@b.example"}}}); err == nil {
		t.Fatal("imported an unparsable from address")
	}
	if err := s.Import(ExportedState{Done: []ExportedDone{{MsgID: "m", Status: "vanished"}}}); err == nil {
		t.Fatal("imported an unknown terminal status")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	// Every transition encodes to a wal.Record whose Apply reproduces
	// the direct fold — the property recovery depends on.
	direct := NewState()
	replayed := NewState()
	recs := []wal.Record{
		EnqueueRecord(t0, chal("m1")),
		EnqueueRecord(t0, chal("m2")),
		AttemptRecord(t0.Add(time.Minute), "m1", "tempfail", "451 busy", 1, t0.Add(time.Hour)),
		TerminalRecord(t0.Add(2*time.Minute), "m2", StatusSent, "", "", 1),
		TerminalRecord(t0.Add(3*time.Minute), "m1", StatusExpired, "exhausted", "451 busy", 2),
	}
	direct.ApplyEnqueue(chal("m1"), 1)
	direct.ApplyEnqueue(chal("m2"), 2)
	direct.ApplyAttempt("m1", "tempfail", "451 busy", 1, t0.Add(time.Hour), 3)
	direct.ApplyTerminal("m2", StatusSent, 1, 4)
	direct.ApplyTerminal("m1", StatusExpired, 2, 5)
	for i, r := range recs {
		r.LSN = uint64(i + 1)
		if err := replayed.Apply(r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	a, _ := json.Marshal(direct.Export())
	b, _ := json.Marshal(replayed.Export())
	if string(a) != string(b) {
		t.Fatalf("record fold diverged from direct fold:\n%s\n%s", a, b)
	}
}

func TestApplyIgnoresForeignOps(t *testing.T) {
	s := NewState()
	if err := s.Apply(wal.Record{Op: wal.OpWhiteAdd, User: "u", Sender: "x@y.example"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(wal.Record{Op: wal.OpSpoolSent, User: "never-enqueued"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("pending = %d", s.Len())
	}
}

func TestRecorderJournalsThenApplies(t *testing.T) {
	var journalled []wal.Record
	var lsn uint64
	st := NewState()
	rc := &Recorder{State: st, Emit: func(r wal.Record) uint64 {
		lsn++
		r.LSN = lsn
		journalled = append(journalled, r)
		return lsn
	}}
	rc.Enqueue(t0, chal("m1"))
	rc.Attempt(t0.Add(time.Minute), "m1", "tempfail", "451", 1, t0.Add(time.Hour))
	rc.Terminal(t0.Add(2*time.Minute), "m1", StatusSent, "", "", 2)
	if len(journalled) != 3 || rc.Dropped() != 0 {
		t.Fatalf("journalled %d records, dropped %d", len(journalled), rc.Dropped())
	}
	// The in-memory state must equal the fold of what was journalled.
	shadow := NewState()
	for _, r := range journalled {
		if err := shadow.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := json.Marshal(st.Export())
	b, _ := json.Marshal(shadow.Export())
	if string(a) != string(b) {
		t.Fatalf("recorder state diverged from journal fold:\n%s\n%s", a, b)
	}
}

func TestRecorderFailOpen(t *testing.T) {
	// A gated-off or dropped append still applies the transition.
	st := NewState()
	gate := false
	rc := &Recorder{
		State: st,
		Emit:  func(wal.Record) uint64 { return 0 }, // journal drops everything
		Gate:  func() bool { return gate },
	}
	rc.Enqueue(t0, chal("m1"))
	if st.Len() != 1 {
		t.Fatal("gated enqueue lost the in-memory transition")
	}
	gate = true
	rc.Terminal(t0, "m1", StatusSent, "", "", 1)
	if _, ok := st.Fate("m1"); !ok {
		t.Fatal("dropped append lost the terminal transition")
	}
	if rc.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", rc.Dropped())
	}
	// No Emit at all: pure in-memory mode.
	rc2 := &Recorder{State: NewState()}
	rc2.Enqueue(t0, chal("m2"))
	if rc2.State.Len() != 1 || rc2.Dropped() != 0 {
		t.Fatalf("in-memory mode: len=%d dropped=%d", rc2.State.Len(), rc2.Dropped())
	}
}
