// Package greylist implements SMTP greylisting, the natural companion to
// a challenge-response filter and an instance of the §5.2 question the
// paper raises: which additional anti-spam techniques should surround
// the CR engine to cut useless challenges without adding false
// positives?
//
// Greylisting temp-rejects (451) the first delivery attempt for an
// unseen (client network, sender, recipient) tuple. Real MTAs queue and
// retry, so legitimate mail arrives minutes later; botnet spam cannons
// typically fire-and-forget, so the retry never comes and the CR engine
// never sees the message — which means no challenge, no backscatter, no
// spamtrap hit. Like CR itself, greylisting trades delivery delay for
// protection; unlike content filters it cannot false-positive on wanted
// mail from a standards-compliant server.
package greylist

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

// Verdict is the greylist decision for one delivery attempt.
type Verdict int

// Verdicts.
const (
	// Accept: the tuple has passed greylisting (or greylisting is
	// bypassed for it); let the message through.
	Accept Verdict = iota
	// TempReject: reply 451 and wait for the retry.
	TempReject
)

// String returns the verdict label.
func (v Verdict) String() string {
	if v == TempReject {
		return "temp-reject"
	}
	return "accept"
}

// Config parameterises a Store.
type Config struct {
	// Delay is the minimum age of a tuple before a retry is accepted
	// (typical deployments use 5–30 minutes).
	Delay time.Duration
	// Window is how long a greylisted tuple waits for its retry; with no
	// retry within the window the tuple is forgotten.
	Window time.Duration
	// PassTTL is how long a passed tuple stays whitelisted (subsequent
	// deliveries are accepted immediately).
	PassTTL time.Duration
}

// DefaultConfig mirrors common production settings.
func DefaultConfig() Config {
	return Config{
		Delay:   15 * time.Minute,
		Window:  24 * time.Hour,
		PassTTL: 36 * 24 * time.Hour,
	}
}

// Stats counts greylisting outcomes.
type Stats struct {
	FirstSeen   int64 // tuples temp-rejected on first contact
	EarlyRetry  int64 // retries before Delay elapsed (still rejected)
	Passed      int64 // retries that promoted the tuple
	KnownAccept int64 // deliveries on already-passed tuples
}

// tuple state.
type entry struct {
	firstSeen time.Time
	passedAt  time.Time // zero until promoted
}

// ExportedTuple is the snapshot form of one tuple's state. Journal
// records carry the same absolute post-transition state, so
// re-applying any in-order suffix of the journal is idempotent (last
// writer wins).
type ExportedTuple struct {
	Key       string    `json:"key"`
	FirstSeen time.Time `json:"first_seen"`
	PassedAt  time.Time `json:"passed_at"`
}

// Store is the greylist database. Safe for concurrent use.
type Store struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	tuples  map[string]*entry
	stats   Stats
	sweepAt time.Time
	journal func(wal.Record) uint64
}

// New returns an empty greylist.
func New(cfg Config, clk clock.Clock) *Store {
	if cfg.Delay <= 0 {
		cfg.Delay = 15 * time.Minute
	}
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Hour
	}
	if cfg.PassTTL <= 0 {
		cfg.PassTTL = 36 * 24 * time.Hour
	}
	return &Store{cfg: cfg, clk: clk, tuples: make(map[string]*entry)}
}

// key builds the greylisting tuple: the client's /24 network (retries
// from large MTA farms come from neighbouring addresses), the envelope
// sender and the recipient.
func key(clientIP string, from, to mail.Address) string {
	net := clientIP
	if i := strings.LastIndexByte(clientIP, '.'); i > 0 {
		net = clientIP[:i]
	}
	return net + "|" + from.Key() + "|" + to.Key()
}

// Check records a delivery attempt and returns the verdict. Null-sender
// mail (bounces) is never greylisted — deferring DSNs loses them, since
// many queue runners do not retry bounces.
func (s *Store) Check(clientIP string, from, to mail.Address) Verdict {
	if from.IsNull() {
		return Accept
	}
	now := s.clk.Now()
	k := key(clientIP, from, to)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeSweep(now)

	e, ok := s.tuples[k]
	if !ok || s.stale(e, now) {
		// First contact, or the retry window or pass TTL ran out: start
		// over.
		s.tuples[k] = &entry{firstSeen: now}
		s.stats.FirstSeen++
		s.emit(k, now, time.Time{})
		return TempReject
	}
	if !e.passedAt.IsZero() {
		s.stats.KnownAccept++
		e.passedAt = now // sliding TTL
		s.emit(k, e.firstSeen, now)
		return Accept
	}
	if now.Sub(e.firstSeen) < s.cfg.Delay {
		// No state change; early retries are not journalled.
		s.stats.EarlyRetry++
		return TempReject
	}
	e.passedAt = now
	s.stats.Passed++
	s.emit(k, e.firstSeen, now)
	return Accept
}

// emit journals a tuple's post-transition state (Time = first-seen,
// Aux = passed-at unix nanoseconds or 0). Caller holds s.mu.
func (s *Store) emit(k string, firstSeen, passedAt time.Time) {
	if s.journal == nil {
		return
	}
	r := wal.Record{Time: firstSeen, Op: wal.OpGreylist, Origin: "greylist", User: k}
	if !passedAt.IsZero() {
		r.Aux = passedAt.UnixNano()
	}
	s.journal(r)
}

// SetJournal installs the change-journal hook (wal.Journal.Emit),
// invoked with the store lock held after every tuple state transition.
// Expiry needs no record: a stale tuple is absent on read whether or
// not the sweep has reclaimed it yet. The hook must not call back into
// the store.
func (s *Store) SetJournal(emit func(wal.Record) uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = emit
}

// Apply sets a tuple to its journalled absolute state (WAL replay);
// records of other stores are ignored.
func (s *Store) Apply(r wal.Record) error {
	if r.Op != wal.OpGreylist {
		return nil
	}
	e := &entry{firstSeen: r.Time}
	if r.Aux != 0 {
		e.passedAt = time.Unix(0, r.Aux).UTC()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tuples[r.User] = e
	return nil
}

// Export returns every live tuple sorted by key, for snapshots. Tuples
// stale at the clock's current time are skipped, so the export does not
// depend on when the sweep last ran.
func (s *Store) Export() []ExportedTuple {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ExportedTuple, 0, len(s.tuples))
	for k, e := range s.tuples {
		if s.stale(e, now) {
			continue
		}
		out = append(out, ExportedTuple{Key: k, FirstSeen: e.firstSeen, PassedAt: e.passedAt})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Import replaces the state of the listed tuples (snapshot load).
func (s *Store) Import(tuples []ExportedTuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tuples {
		s.tuples[t.Key] = &entry{firstSeen: t.FirstSeen, passedAt: t.PassedAt}
	}
}

// stale reports whether e has expired at now: an unpassed tuple whose
// retry window closed, or a passed tuple whose pass TTL ran out. Check
// treats a stale tuple as first contact and Export skips it.
func (s *Store) stale(e *entry, now time.Time) bool {
	if e.passedAt.IsZero() {
		return now.Sub(e.firstSeen) > s.cfg.Window
	}
	return now.Sub(e.passedAt) > s.cfg.PassTTL
}

// maybeSweep reclaims the memory of stale tuples at most once per hour
// of clock time. Expiry itself is lazy (see stale), so the sweep changes
// nothing a reader can observe. Caller holds s.mu.
func (s *Store) maybeSweep(now time.Time) {
	if !s.sweepAt.IsZero() && now.Sub(s.sweepAt) < time.Hour {
		return
	}
	s.sweepAt = now
	for k, e := range s.tuples {
		if s.stale(e, now) {
			delete(s.tuples, k)
		}
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of tracked tuples, including stale ones the
// sweep has not reclaimed yet.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tuples)
}

// String summarises the store for logs.
func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("greylist{tuples=%d first=%d early=%d passed=%d known=%d}",
		s.Len(), st.FirstSeen, st.EarlyRetry, st.Passed, st.KnownAccept)
}
