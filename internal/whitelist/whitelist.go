// Package whitelist implements the per-user sender white- and blacklists
// that are the foundation of the challenge-response approach.
//
// The paper's product supports four ways an address enters a whitelist
// (§2 "Whitelisting process"): the sender solves a challenge, the user
// authorizes the sender from the daily digest, the user adds the address
// manually, or the user previously sent mail to that address. Each entry
// records its source and timestamp so the §4.3 change-rate analysis
// (Figure 9: distribution of new entries per 60 days) can be reproduced
// directly from the store.
package whitelist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

// Source identifies how an entry was added to a list.
type Source int

// Whitelist entry sources (§2 of the paper).
const (
	// SourceChallenge: the sender solved the CAPTCHA challenge.
	SourceChallenge Source = iota
	// SourceDigest: the user authorized the sender from the daily digest.
	SourceDigest
	// SourceManual: the user imported the address by hand.
	SourceManual
	// SourceOutbound: the user sent a message to the address, which
	// implicitly whitelists it.
	SourceOutbound
	// SourceSeed: pre-existing entry from before the monitoring window
	// (the user's historical contact list).
	SourceSeed
)

// String returns a short label for the source.
func (s Source) String() string {
	switch s {
	case SourceChallenge:
		return "challenge"
	case SourceDigest:
		return "digest"
	case SourceManual:
		return "manual"
	case SourceOutbound:
		return "outbound"
	case SourceSeed:
		return "seed"
	default:
		return "unknown"
	}
}

// Entry is one sender address on a user's list.
type Entry struct {
	Addr   mail.Address
	Source Source
	Added  time.Time
}

// List is one user's whitelist (or blacklist). Not safe for concurrent
// use on its own; Store serialises access.
//
// Entries are keyed by the canonical sender Address (see
// mail.Address.Canonical), so membership checks on the dispatch hot
// path need no key-string allocation.
type List struct {
	entries map[mail.Address]Entry // by canonical sender address
	log     []Entry                // append-only change log (additions only)
}

func newList() *List {
	return &List{entries: make(map[mail.Address]Entry)}
}

// insert adds e unless its address is already listed (the first entry
// wins) and reports whether e was new.
func (l *List) insert(e Entry) bool {
	sk := e.Addr.Canonical()
	if _, ok := l.entries[sk]; ok {
		return false
	}
	l.entries[sk] = e
	l.log = append(l.log, e)
	return true
}

// Store holds the white- and blacklists of every user of one company's
// installation. It is safe for concurrent use.
type Store struct {
	clk clock.Clock

	mu      sync.RWMutex
	white   map[mail.Address]*List // by canonical user address
	black   map[mail.Address]*List
	journal func(wal.Record) uint64
}

// NewStore returns an empty store using clk for entry timestamps.
func NewStore(clk clock.Clock) *Store {
	return &Store{
		clk:   clk,
		white: make(map[mail.Address]*List),
		black: make(map[mail.Address]*List),
	}
}

// SetJournal installs the change-journal hook (wal.Journal.Emit). The
// hook is invoked with the store lock held, once per applied mutation,
// in apply order; it must not call back into the store. Replays via
// Apply and bulk Import are not journalled (they reconstruct state that
// is already durable).
func (s *Store) SetJournal(emit func(wal.Record) uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = emit
}

// emit journals one list mutation. Origin names the entry source
// ("remove" for removals, which carry no source). Caller holds s.mu.
func (s *Store) emit(op wal.Op, user mail.Address, e Entry) {
	if s.journal == nil {
		return
	}
	r := wal.Record{Time: e.Added, Op: op, User: user.String(), Sender: e.Addr.String(),
		Origin: e.Source.String(), Value: int64(e.Source)}
	if op == wal.OpWhiteRemove {
		r.Origin, r.Value = "remove", 0
	}
	s.journal(r)
}

// Apply re-applies a journalled list mutation during WAL replay; records
// of other stores are ignored. Additions are insert-if-absent (replaying
// a mutation whose effect is already in the snapshot is a no-op),
// removals delete-if-present, so replaying any in-order suffix of the
// mutation history is idempotent.
func (s *Store) Apply(r wal.Record) error {
	if r.Op != wal.OpWhiteAdd && r.Op != wal.OpBlackAdd && r.Op != wal.OpWhiteRemove {
		return nil
	}
	user, err := mail.ParseAddress(r.User)
	if err != nil {
		return fmt.Errorf("whitelist: record %d user %q: %v", r.LSN, r.User, err)
	}
	sender, err := mail.ParseAddress(r.Sender)
	if err != nil {
		return fmt.Errorf("whitelist: record %d sender %q: %v", r.LSN, r.Sender, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Op == wal.OpWhiteRemove {
		if l := s.white[user.Canonical()]; l != nil {
			delete(l.entries, sender.Canonical())
		}
		return nil
	}
	lists := s.white
	if r.Op == wal.OpBlackAdd {
		lists = s.black
	}
	s.list(lists, user).insert(Entry{Addr: sender, Source: Source(r.Value), Added: r.Time})
	return nil
}

func (s *Store) list(m map[mail.Address]*List, user mail.Address) *List {
	uk := user.Canonical()
	l := m[uk]
	if l == nil {
		l = newList()
		m[uk] = l
	}
	return l
}

// AddWhite adds sender to user's whitelist with the given source. Adding
// an address that is already present is a no-op (the first source wins),
// matching the product's behaviour and keeping the change log an honest
// record of *new* entries for the Figure 9 churn statistics. It returns
// true if the entry was new.
func (s *Store) AddWhite(user, sender mail.Address, src Source) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(s.white, wal.OpWhiteAdd, user, Entry{Addr: sender, Source: src, Added: s.clk.Now()})
}

// AddBlack adds sender to user's blacklist. Returns true if new.
func (s *Store) AddBlack(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(s.black, wal.OpBlackAdd, user, Entry{Addr: sender, Source: SourceManual, Added: s.clk.Now()})
}

// add inserts e into user's list in lists and journals it as op if it
// was new. Caller holds s.mu.
func (s *Store) add(lists map[mail.Address]*List, op wal.Op, user mail.Address, e Entry) bool {
	if !s.list(lists, user).insert(e) {
		return false
	}
	s.emit(op, user, e)
	return true
}

// RemoveWhite deletes sender from user's whitelist. Removals are not
// logged (the paper counts only new entries). Returns true if present.
func (s *Store) RemoveWhite(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return false
	}
	sk := sender.Canonical()
	if _, ok := l.entries[sk]; !ok {
		return false
	}
	delete(l.entries, sk)
	s.emit(wal.OpWhiteRemove, user, Entry{Addr: sender, Added: s.clk.Now()})
	return true
}

// IsWhite reports whether sender is on user's whitelist.
func (s *Store) IsWhite(user, sender mail.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return false
	}
	_, ok := l.entries[sender.Canonical()]
	return ok
}

// IsBlack reports whether sender is on user's blacklist.
func (s *Store) IsBlack(user, sender mail.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.black[user.Canonical()]
	if l == nil {
		return false
	}
	_, ok := l.entries[sender.Canonical()]
	return ok
}

// WhiteSize returns the number of entries on user's whitelist.
func (s *Store) WhiteSize(user mail.Address) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return 0
	}
	return len(l.entries)
}

// AdditionsBetween returns the number of whitelist entries user gained in
// [from, to), optionally restricted to the given sources (none = all).
// SourceSeed entries are excluded unless explicitly requested: the paper
// measures churn "excluding new users".
func (s *Store) AdditionsBetween(user mail.Address, from, to time.Time, sources ...Source) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return 0
	}
	want := func(src Source) bool {
		if len(sources) == 0 {
			return src != SourceSeed
		}
		for _, w := range sources {
			if w == src {
				return true
			}
		}
		return false
	}
	n := 0
	for _, e := range l.log {
		if !e.Added.Before(from) && e.Added.Before(to) && want(e.Source) {
			n++
		}
	}
	return n
}

// ModifiedUsers returns, sorted, the users whose whitelists gained at
// least one non-seed entry in [from, to).
func (s *Store) ModifiedUsers(from, to time.Time) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for user, l := range s.white {
		for _, e := range l.log {
			if e.Source != SourceSeed && !e.Added.Before(from) && e.Added.Before(to) {
				out = append(out, user.Key())
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Users returns all user keys with a whitelist, sorted.
func (s *Store) Users() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.white))
	for user := range s.white {
		out = append(out, user.Key())
	}
	sort.Strings(out)
	return out
}

// ExportedList is the serialisable form of one user's lists, used by the
// persistence layer (internal/store).
type ExportedList struct {
	User  string  `json:"user"`
	White []Entry `json:"white,omitempty"`
	Black []Entry `json:"black,omitempty"`
}

// Export returns every user's lists in a stable order (users sorted,
// entries sorted by addition time then address), suitable for snapshots.
func (s *Store) Export() []ExportedList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	users := make(map[mail.Address]bool)
	for u := range s.white {
		users[u] = true
	}
	for u := range s.black {
		users[u] = true
	}
	keys := make([]mail.Address, 0, len(users))
	for u := range users {
		keys = append(keys, u)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Key() < keys[j].Key() })

	dump := func(l *List) []Entry {
		if l == nil {
			return nil
		}
		out := make([]Entry, 0, len(l.entries))
		for _, e := range l.entries {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool {
			if !out[i].Added.Equal(out[j].Added) {
				return out[i].Added.Before(out[j].Added)
			}
			return out[i].Addr.Key() < out[j].Addr.Key()
		})
		return out
	}
	out := make([]ExportedList, 0, len(keys))
	for _, u := range keys {
		out = append(out, ExportedList{
			User:  u.Key(),
			White: dump(s.white[u]),
			Black: dump(s.black[u]),
		})
	}
	return out
}

// Import merges exported lists into the store, preserving the original
// sources and timestamps. Existing entries win (Import never overwrites).
func (s *Store) Import(lists []ExportedList) error {
	for _, l := range lists {
		user, err := mail.ParseAddress(l.User)
		if err != nil {
			return fmt.Errorf("whitelist: bad user %q: %v", l.User, err)
		}
		s.mu.Lock()
		wl, bl := s.list(s.white, user), s.list(s.black, user)
		for _, e := range l.White {
			wl.insert(e)
		}
		for _, e := range l.Black {
			bl.insert(e)
		}
		s.mu.Unlock()
	}
	return nil
}

// CountBySource tallies all whitelist additions (across users) per source.
func (s *Store) CountBySource() map[Source]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Source]int)
	for _, l := range s.white {
		for _, e := range l.log {
			out[e.Source]++
		}
	}
	return out
}
