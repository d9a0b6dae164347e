package logscan_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/logscan"
	"repro/internal/maillog"
)

// engineFields maps every event kind to a field set the engine emits
// for it.
var engineFields = map[maillog.Kind][]string{
	maillog.KindMTAAccept:      {"from", "a@b.example", "size", "1234"},
	maillog.KindMTADrop:        {"reason", "unknown-recipient", "size", "900"},
	maillog.KindDispatch:       {"spool", "gray"},
	maillog.KindFilterDrop:     {"filter", "rbl"},
	maillog.KindChallenge:      {"to", "sender@remote.example"},
	maillog.KindDeliver:        {"via", "challenge-solved"},
	maillog.KindWebVisit:       {},
	maillog.KindWebSolve:       {},
	maillog.KindDegraded:       {"component", "rbl", "mode", "fail-open", "action", "accept"},
	maillog.KindReputation:     {"action", "fast-path", "band", "trusted", "score", "0.812", "keys", "a;d;i"},
	maillog.KindOverload:       {"reason", "queue-full", "queue", "128"},
	maillog.KindBounce:         {"class", "no-user", "status", "5.1.1", "domain", "victim.example"},
	maillog.KindLoopSuppressed: {"from", "challenge@peer.example", "auto", "auto-replied"},
}

// TestEncodeDecodeRoundTrip: 2000 seeded-random events of every kind,
// carrying either the engine's fields or 0..7 random ones, stamped in
// UTC and non-UTC zones, are rendered with AppendFormat, decoded with
// ParseLineBytes, and re-rendered. The decoded event must equal the
// original (its time in UTC) and the second rendering must be
// byte-identical to the first, proving the decoder loses nothing the
// encoder writes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tok := func() string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789.-;@"
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	kinds := make([]maillog.Kind, 0, len(engineFields))
	for k := range engineFields {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	zones := []*time.Location{time.UTC, time.FixedZone("plus5", 5*3600), time.FixedZone("minus7", -7*3600)}
	d := logscan.NewDecoder()
	var e maillog.Event
	buf := make([]byte, 0, 256)
	for i := 0; i < 2000; i++ {
		at := time.Date(2010, 7, 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, zones[rng.Intn(len(zones))])
		kind := kinds[rng.Intn(len(kinds))]
		msgID := ""
		if rng.Intn(4) > 0 {
			msgID = "m-" + strconv.Itoa(rng.Intn(1e6))
		}
		kvs := engineFields[kind]
		if rng.Intn(2) == 0 {
			// 0..7 distinct fields: inline-only, boundary, and overflow map.
			nf := rng.Intn(8)
			kvs = make([]string, 0, nf*2)
			seen := map[string]bool{"msg": true}
			for len(kvs)/2 < nf {
				k := tok()
				if seen[k] {
					continue
				}
				seen[k] = true
				kvs = append(kvs, k, tok())
			}
		}
		orig := maillog.MakeEvent(at, "co-"+strconv.Itoa(rng.Intn(40)), kind, msgID, kvs...)

		buf = orig.AppendFormat(buf[:0])
		first := string(buf)
		if err := d.ParseLineBytes(buf, &e); err != nil {
			t.Fatalf("case %d: ParseLineBytes(%q): %v", i, first, err)
		}
		if !e.Time.Equal(at) || e.Time.Location() != time.UTC {
			t.Fatalf("case %d: time %v, want %v in UTC", i, e.Time, at)
		}
		if e.Company != orig.Company || e.Kind != orig.Kind || e.MsgID != orig.MsgID {
			t.Fatalf("case %d: header %+v, want %+v", i, e, orig)
		}
		if !reflect.DeepEqual(e.FieldMap(), orig.FieldMap()) {
			t.Fatalf("case %d: fields %v, want %v", i, e.FieldMap(), orig.FieldMap())
		}
		if second := string(e.AppendFormat(nil)); second != first {
			t.Fatalf("case %d: round trip drifted:\n first %q\nsecond %q", i, first, second)
		}
	}
}

// referenceParse is the executable specification of the line format:
// strings.Fields tokenizing and time.Parse on the fixed-width
// timestamp, the plain reading of the format that ParseLineBytes must
// agree with on which lines are bad and on what every good line
// decodes to.
func referenceParse(line string) (maillog.Event, error) {
	const layout = "2006-01-02T15:04:05Z"
	parts := strings.Fields(line)
	if len(parts) < 3 {
		return maillog.Event{}, fmt.Errorf("short line %q", line)
	}
	// The encoder always writes all 20 bytes of the layout. time.Parse
	// alone would also take a one-digit hour ("T9:00:00Z") and
	// fractional seconds ("00:00:00.5Z"); neither is a log timestamp.
	if len(parts[0]) != len(layout) {
		return maillog.Event{}, fmt.Errorf("bad timestamp width in %q", line)
	}
	t, err := time.Parse(layout, parts[0])
	if err != nil {
		return maillog.Event{}, fmt.Errorf("bad timestamp in %q: %v", line, err)
	}
	e := maillog.Event{Time: t, Company: parts[1], Kind: maillog.Kind(parts[2])}
	for _, kv := range parts[3:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return maillog.Event{}, fmt.Errorf("bad field %q in %q", kv, line)
		}
		if k == "msg" {
			e.MsgID = v
			continue
		}
		e.AddField(k, v)
	}
	return e, nil
}

// FuzzParseLineBytes holds the zero-copy decoder to referenceParse,
// its executable specification: for any ASCII input the two must agree
// on whether the line parses, and on every decoded component when it
// does. (Non-ASCII bytes are exempt from the classification check:
// strings.Fields treats unicode whitespace as a separator, the byte
// decoder deliberately does not — log lines are ASCII by construction.)
func FuzzParseLineBytes(f *testing.F) {
	f.Add([]byte("2010-07-01T10:00:00Z company-03 mta-drop msg=abc reason=unknown-recipient size=900"))
	f.Add([]byte("2010-07-01T10:00:00Z corp reputation msg=m action=fast-path band=trusted score=0.8 keys=a"))
	f.Add([]byte("  2010-12-31T23:59:59Z \t x y a=1  "))
	f.Add([]byte("2010-02-30T10:00:00Z c deliver"))
	f.Add([]byte("0000-01-01T0:00:00Z 0 0"))
	f.Add([]byte("2010-07-01T10:00:00.5Z c deliver"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, line []byte) {
		ascii := true
		for _, c := range line {
			if c >= 0x80 {
				ascii = false
				break
			}
		}
		if !ascii {
			return
		}
		d := logscan.NewDecoder()
		var got maillog.Event
		gerr := d.ParseLineBytes(line, &got)
		want, werr := referenceParse(string(line))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("classification split on %q: decoder=%v reference=%v", line, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !got.Time.Equal(want.Time) || got.Company != want.Company || got.Kind != want.Kind || got.MsgID != want.MsgID {
			t.Fatalf("header drift on %q: %+v vs %+v", line, got, want)
		}
		if !reflect.DeepEqual(got.FieldMap(), want.FieldMap()) {
			t.Fatalf("field drift on %q: %v vs %v", line, got.FieldMap(), want.FieldMap())
		}
		// And both render back to the same bytes.
		if g, w := string(got.AppendFormat(nil)), string(want.AppendFormat(nil)); g != w {
			t.Fatalf("render drift on %q: %q vs %q", line, g, w)
		}
	})
}
