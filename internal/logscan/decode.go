// Package logscan is the one reader of the decision logs maillog
// emits, built for paper scale. The paper's numbers come from crawling
// six months of daily logs — roughly 90M emails across 47 companies —
// so the crawler has to run at I/O speed, not at
// strings.Fields-plus-map-per-line speed. The package is the
// decode/aggregate mirror image of the zero-alloc encoder
// maillog.AppendFormat: a byte-slicing line decoder with string
// interning, a scanner that frames lines in one place and feeds them to
// parallel workers (range-split for files and in-memory readers, a
// single-reader producer for pipes), and a deterministic shard merge
// that yields the same maillog.Aggregate for any worker count.
package logscan

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/maillog"
)

// Decode errors. They are preallocated so the bad-line path of a scan
// allocates nothing; callers wanting context wrap them with position.
var (
	// ErrShortLine: fewer than the three mandatory tokens
	// (timestamp, company, kind).
	ErrShortLine = errors.New("logscan: short line")
	// ErrBadTimestamp: first token is not a valid
	// "2006-01-02T15:04:05Z" instant.
	ErrBadTimestamp = errors.New("logscan: bad timestamp")
	// ErrBadField: a field token without '='.
	ErrBadField = errors.New("logscan: bad field")
)

// Interner limits: values longer than maxInternLen or past the entry
// cap are returned as fresh strings instead of being retained, so a
// hostile log cannot balloon the table.
const (
	maxInternLen     = 64
	maxInternEntries = 1 << 16
)

// Decoder decodes log lines from byte slices without allocating. It
// interns company names, kinds, field keys and small field values in a
// bounded table, so the strings an Event carries are shared across the
// millions of lines that repeat them and the amortized decode cost is
// ~0 allocations per event. A Decoder is NOT safe for concurrent use —
// the parallel scanner gives each worker its own.
type Decoder struct {
	// SkipMsgID leaves Event.MsgID empty instead of materializing a
	// string for it. Message IDs are unique per event — the one field
	// interning cannot help — and the Aggregate never reads them, so
	// aggregation-only scans set this to stay allocation-free.
	SkipMsgID bool

	strs map[string]string
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{strs: make(map[string]string, 256)}
}

// intern returns a string equal to b, shared across calls for small
// repeated tokens. The map index with a string(b) key compiles to a
// no-allocation lookup; only a miss pays for the string copy.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) <= maxInternLen && len(d.strs) < maxInternEntries {
		d.strs[s] = s
	}
	return s
}

// asciiSpace mirrors the ASCII half of strings.Fields' separator set,
// which is all a log line can contain (values may not contain spaces).
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' || c == '\n'
}

// nextToken returns the first token of buf and the remainder after it.
// An empty token means buf held only whitespace.
func nextToken(buf []byte) (tok, rest []byte) {
	i := 0
	for i < len(buf) && asciiSpace(buf[i]) {
		i++
	}
	j := i
	for j < len(buf) && !asciiSpace(buf[j]) {
		j++
	}
	return buf[i:j], buf[j:]
}

// ParseLineBytes parses one log line into e, overwriting it completely.
// A line is ASCII-whitespace-separated tokens: a "2006-01-02T15:04:05Z"
// timestamp, the company, the kind, then key=value fields ("msg" sets
// MsgID). The input is tokenized by slicing buf in place, the Event's
// inline pairs are filled first (the same machinery AppendFormat
// encodes from), and every string except the per-event message ID
// comes from the intern table. buf is not retained; it may be a reused
// read buffer.
func (d *Decoder) ParseLineBytes(buf []byte, e *maillog.Event) error {
	*e = maillog.Event{}
	ts, rest := nextToken(buf)
	co, rest := nextToken(rest)
	kind, rest := nextToken(rest)
	if len(kind) == 0 {
		return ErrShortLine
	}
	t, ok := parseTimestamp(ts)
	if !ok {
		return ErrBadTimestamp
	}
	e.Time = t
	e.Company = d.intern(co)
	e.Kind = maillog.Kind(d.intern(kind))
	for {
		var tok []byte
		tok, rest = nextToken(rest)
		if len(tok) == 0 {
			return nil
		}
		eq := bytes.IndexByte(tok, '=')
		if eq < 0 {
			return ErrBadField
		}
		k, v := tok[:eq], tok[eq+1:]
		if string(k) == "msg" {
			if !d.SkipMsgID {
				e.MsgID = string(v)
			}
			continue
		}
		e.AddField(d.intern(k), d.intern(v))
	}
}

// parseTimestamp decodes the fixed "2006-01-02T15:04:05Z" layout
// without time.Parse's allocations. It accepts what time.Parse accepts
// for that layout at its full 20-byte width: correct separators,
// in-range components, and calendar-valid dates (Feb 30 is rejected,
// not normalized). The one-digit hour and fractional seconds time.Parse
// also tolerates are bad timestamps here; the encoder writes neither.
func parseTimestamp(b []byte) (time.Time, bool) {
	if len(b) != 20 ||
		b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != 'Z' {
		return time.Time{}, false
	}
	dig := func(i int) (int, bool) {
		c := b[i] - '0'
		return int(c), c <= 9
	}
	num := func(i, width int) (int, bool) {
		n := 0
		for k := i; k < i+width; k++ {
			d, ok := dig(k)
			if !ok {
				return 0, false
			}
			n = n*10 + d
		}
		return n, true
	}
	year, ok1 := num(0, 4)
	month, ok2 := num(5, 2)
	day, ok3 := num(8, 2)
	hour, ok4 := num(11, 2)
	minute, ok5 := num(14, 2)
	sec, ok6 := num(17, 2)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	if month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	// time.Date normalizes out-of-range days (Feb 30 -> Mar 2);
	// time.Parse rejects them. Reject likewise: a calendar-invalid
	// date makes a bad line.
	if t.Day() != day || t.Month() != time.Month(month) || t.Year() != year {
		return time.Time{}, false
	}
	return t, true
}
