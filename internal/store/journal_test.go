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
	"repro/internal/spool"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// allStores returns all four durable stores, empty, on clk.
func allStores(clk clock.Clock) Stores {
	return Stores{
		Whitelist:  whitelist.NewStore(clk),
		Reputation: reputation.NewStore(reputation.Config{}, clk),
		Greylist:   greylist.New(greylist.Config{}, clk),
		Spool:      spool.NewState(),
	}
}

// snapshotBytes renders st as a snapshot, the byte-for-byte comparison
// of all four stores at once.
func snapshotBytes(t *testing.T, st Stores, at time.Time) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Save(&b, "corp", st, 0, at); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestJournalRoundTrip drives all four stores through the journal,
// replays the log into fresh stores through Stores.Apply, and requires
// byte-identical exports. The run spans days of clock time, so the live
// greylist's sweep deletes expired tuples without journalling them; the
// replayed store still holds them, and lazy expiry must hide them.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Manual: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(t0)
	live := allStores(clk)
	j := wal.NewJournal(l)
	var tapped []wal.Record
	j.SetTap(func(r wal.Record) { tapped = append(tapped, r) })
	j.Attach(live.Whitelist, live.Reputation, live.Greylist)
	rc := &spool.Recorder{State: live.Spool, Emit: j.Emit}

	user := mail.MustParseAddress("alice@corp.example")
	from := mail.MustParseAddress("challenge@corp.example")
	for i := 0; i < 30; i++ {
		sender := mail.MustParseAddress(fmt.Sprintf("Sender%d@remote.example", i))
		live.Whitelist.AddWhite(user, sender, whitelist.Source(i%5))
		live.Reputation.Record(sender, fmt.Sprintf("198.51.100.%d", i), reputation.Outcome(i%6))
		ip := fmt.Sprintf("203.0.113.%d", i)
		live.Greylist.Check(ip, sender, user)
		if i%3 == 0 {
			clk.Advance(20 * time.Minute)
			live.Greylist.Check(ip, sender, user) // passes
		}
		id := fmt.Sprintf("chal-%03d", i)
		rc.Enqueue(clk.Now(), spool.Challenge{MsgID: id, Token: "tok-" + id, From: from, To: sender,
			Subject: "please confirm", URL: "https://corp.example/c/" + id, Size: 1800, Issued: clk.Now()})
		switch i % 4 {
		case 1:
			rc.Attempt(clk.Now(), id, "tempfail", "451 try again later", 1, clk.Now().Add(15*time.Minute))
		case 2:
			rc.Terminal(clk.Now(), id, spool.StatusSent, "", "", 1)
		case 3:
			rc.Terminal(clk.Now(), id, spool.StatusBounced, "permfail", "550 no such user", 1)
		}
		clk.Advance(3 * time.Hour)
	}
	live.Whitelist.AddBlack(user, mail.MustParseAddress("evil@spam.example"))
	live.Whitelist.RemoveWhite(user, mail.MustParseAddress("sender3@remote.example"))
	live.Reputation.Record(mail.Null, "203.0.113.9", reputation.Bounced)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range tapped {
		if r.LSN != uint64(i+1) {
			t.Fatalf("tap record %d has LSN %d", i, r.LSN)
		}
	}
	if rc.Dropped() != 0 {
		t.Fatalf("spool recorder dropped %d appends", rc.Dropped())
	}

	cold := allStores(clock.NewSim(clk.Now()))
	l2, st, err := wal.Open(wal.Options{Dir: dir, Manual: true}, 0, cold.Apply)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Replayed != len(tapped) {
		t.Fatalf("replayed %d, committed %d", st.Replayed, len(tapped))
	}
	// The replayed greylist holds every journalled tuple, the live one
	// only those the sweep has not reclaimed, and the replayed export
	// hides the stale ones: the test covers expiry.
	if cold.Greylist.Len() != 30 || live.Greylist.Len() >= 30 || len(cold.Greylist.Export()) >= 30 {
		t.Fatalf("greylist tuples: replayed %d (%d exported), live %d; want 30 (fewer), fewer",
			cold.Greylist.Len(), len(cold.Greylist.Export()), live.Greylist.Len())
	}
	if len(live.Greylist.Export()) == 0 || live.Spool.Len() == 0 || len(live.Spool.DoneCounts()) == 0 {
		t.Fatal("round trip covers no live greylist tuple or no pending/terminal spool item")
	}
	if a, b := snapshotBytes(t, live, clk.Now()), snapshotBytes(t, cold, clk.Now()); !bytes.Equal(a, b) {
		t.Fatalf("exports differ after replay\n%s\n%s", a, b)
	}
}

// TestSnapshotFormatStable loads a snapshot written by an earlier build
// (all four stores populated, non-zero WAL cut) and requires the
// re-export to be byte-identical: FormatVersion 1, same JSON keys.
func TestSnapshotFormatStable(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(t0)
	st := allStores(clk)
	snap, err := Load(bytes.NewReader(want), st)
	if err != nil {
		t.Fatal(err)
	}
	if snap.WalLSN == 0 || len(snap.Lists) == 0 || len(snap.Reputation) == 0 || len(snap.Greylist) == 0 ||
		snap.Spool == nil || len(snap.Spool.Pending) == 0 || len(snap.Spool.Done) == 0 {
		t.Fatalf("fixture does not populate every store: %+v", snap)
	}
	clk.Set(snap.SavedAt)
	var got bytes.Buffer
	if err := Save(&got, snap.Name, st, snap.WalLSN, snap.SavedAt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-export differs from the committed snapshot\n%s", got.Bytes())
	}
}
