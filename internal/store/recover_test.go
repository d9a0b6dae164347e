package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// TestRecoverSnapshotPlusWALSuffix runs the full boot protocol: mutate
// journalled stores, snapshot at a mid-run WAL cut, keep mutating, then
// recover a cold installation from snapshot + WAL suffix and require
// byte-identical whitelist, reputation and greylist exports.
func TestRecoverSnapshotPlusWALSuffix(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "state.json")

	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	rep := reputation.NewStore(reputation.Config{}, clk)
	gl := greylist.New(greylist.Config{}, clk)
	live := Stores{Whitelist: wl, Reputation: rep, Greylist: gl}

	log, _, err := wal.Open(wal.Options{Dir: walDir, Manual: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := wal.NewJournal(log)
	j.Attach(wl, rep, gl)

	user := mail.MustParseAddress("alice@corp.example")
	mutate := func(i int) {
		sender := mail.MustParseAddress(fmt.Sprintf("sender%d@remote.example", i))
		wl.AddWhite(user, sender, whitelist.Source(i%5))
		rep.Record(sender, fmt.Sprintf("198.51.100.%d", i), reputation.Outcome(i%6))
		gl.Check(fmt.Sprintf("203.0.113.%d", i), sender, user)
		clk.Advance(41 * time.Minute)
	}
	for i := 0; i < 12; i++ {
		mutate(i)
	}

	// Snapshot protocol: sample the cut BEFORE exporting, sync, save.
	cut := log.LastLSN()
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(snapPath, "corp", live, cut, clk.Now()); err != nil {
		t.Fatal(err)
	}

	// Post-snapshot mutations live only in the WAL suffix.
	for i := 12; i < 20; i++ {
		mutate(i)
	}
	wl.RemoveWhite(user, mail.MustParseAddress("sender3@remote.example"))
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold boot.
	clk2 := clock.NewSim(clk.Now())
	cold := Stores{
		Whitelist:  whitelist.NewStore(clk2),
		Reputation: reputation.NewStore(reputation.Config{}, clk2),
		Greylist:   greylist.New(greylist.Config{}, clk2),
	}
	rec, err := Recover(snapPath, wal.Options{Dir: walDir, Manual: true}, cold)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Snapshot == nil || rec.Snapshot.WalLSN != cut {
		t.Fatalf("snapshot = %+v, want WalLSN %d", rec.Snapshot, cut)
	}
	if rec.Replayed == 0 {
		t.Fatal("no WAL records replayed past the snapshot cut")
	}
	if rec.Truncated {
		t.Fatal("clean shutdown reported a torn tail")
	}

	if a, b := snapshotBytes(t, live, clk.Now()), snapshotBytes(t, cold, clk.Now()); !bytes.Equal(a, b) {
		t.Fatalf("exports differ after recovery\n%s\n%s", a, b)
	}

	// The recovered log continues the LSN sequence.
	if next := rec.Log.LastLSN(); next != log.LastLSN() {
		t.Fatalf("recovered LastLSN = %d, want %d", next, log.LastLSN())
	}
}

// TestRecoverTruncatesTornTail crashes mid-append: the last frame on
// disk is cut short, and Recover must boot anyway, replaying the intact
// prefix and reporting the truncation.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}

	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	log, _, err := wal.Open(wal.Options{Dir: walDir, Manual: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := wal.NewJournal(log)
	j.Attach(wl, nil, nil)
	user := mail.MustParseAddress("alice@corp.example")
	for i := 0; i < 10; i++ {
		wl.AddWhite(user, mail.MustParseAddress(fmt.Sprintf("s%d@remote.example", i)), whitelist.SourceChallenge)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop 5 bytes off the active segment.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, err = %v", segs, err)
	}
	seg := segs[len(segs)-1]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	cold := Stores{Whitelist: whitelist.NewStore(clock.NewSim(clk.Now()))}
	rec, err := Recover(filepath.Join(dir, "no-snapshot.json"), wal.Options{Dir: walDir, Manual: true}, cold)
	if err != nil {
		t.Fatalf("Recover refused to boot on a torn tail: %v", err)
	}
	defer rec.Log.Close()
	if !rec.Truncated || rec.TornBytes == 0 {
		t.Fatalf("recovery = %+v, want truncated torn tail", rec)
	}
	if rec.Replayed != 9 {
		t.Fatalf("replayed %d records, want 9 (intact prefix)", rec.Replayed)
	}
	if !cold.Whitelist.IsWhite(user, mail.MustParseAddress("s8@remote.example")) {
		t.Fatal("intact prefix record lost")
	}
}
