package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

func TestCrashRestartRecoversEverything(t *testing.T) {
	rep, err := CrashRestart(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 5 {
		t.Fatalf("crash points = %d, want 5", len(rep.Points))
	}
	for i, p := range rep.Points {
		if p.LostAcked != 0 {
			t.Errorf("crash %d lost %d acked record(s)", i+1, p.LostAcked)
		}
		if !p.StateIdentical {
			t.Errorf("crash %d state diverged: %s", i+1, p.Detail)
		}
		if p.RecoveredLSN < p.DurableLSN || p.RecoveredLSN > p.AppendedLSN {
			t.Errorf("crash %d recovered LSN %d outside [durable %d, appended %d]",
				i+1, p.RecoveredLSN, p.DurableLSN, p.AppendedLSN)
		}
	}
	if !rep.Pass() {
		t.Fatal("report does not pass")
	}
	out := rep.Render()
	if !strings.Contains(out, "crash safety: PASS") {
		t.Fatalf("render missing verdict line:\n%s", out)
	}
	if rep.Compactions == 0 {
		t.Error("no compactions happened over the run; segments too large for the traffic?")
	}
}

// TestCrashRestartDeterministic: same seed, same report — the torn
// tails, crash points, and recovery outcomes are all seeded.
func TestCrashRestartDeterministic(t *testing.T) {
	a, err := CrashRestart(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrashRestart(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", a.Render(), b.Render())
	}
}

// TestCrashCheckCatchesDroppedGreylistRecord: the recovery check
// compares the greylist byte for byte, so a shadow fold missing a
// single greylist record is reported as divergence.
func TestCrashCheckCatchesDroppedGreylistRecord(t *testing.T) {
	l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Manual: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clk := clock.NewSim(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
	live := newCrashStores(clk)
	j := wal.NewJournal(l)
	var recs []wal.Record
	j.SetTap(func(r wal.Record) { recs = append(recs, r) })
	j.Attach(live.Whitelist, live.Reputation, live.Greylist)
	user := mail.MustParseAddress("user@corp.example")
	for i := 0; i < 5; i++ {
		s := mail.MustParseAddress(fmt.Sprintf("sender%d@remote.example", i))
		live.Whitelist.AddWhite(user, s, whitelist.SourceChallenge)
		live.Reputation.Record(s, "198.51.100.1", reputation.Delivered)
		live.Greylist.Check(fmt.Sprintf("203.0.113.%d", i), s, user)
		clk.Advance(time.Minute)
	}

	var ok CrashPoint
	if err := ok.checkRecovery(recs, live, clk); err != nil {
		t.Fatal(err)
	}
	if !ok.StateIdentical || !ok.SpoolIdentical {
		t.Fatalf("full shadow fold diverged: %s", ok.Detail)
	}

	// Drop the last greylist record: its tuple is touched by no other.
	drop := -1
	for i, r := range recs {
		if r.Op == wal.OpGreylist {
			drop = i
		}
	}
	short := append(append([]wal.Record(nil), recs[:drop]...), recs[drop+1:]...)
	var bad CrashPoint
	if err := bad.checkRecovery(short, live, clk); err != nil {
		t.Fatal(err)
	}
	if bad.StateIdentical || bad.Detail != "greylist diverged from shadow" || !bad.SpoolIdentical {
		t.Fatalf("dropped greylist record not reported: identical=%v spool=%v detail=%q",
			bad.StateIdentical, bad.SpoolIdentical, bad.Detail)
	}
}
