// Package reputation implements a concurrent sender-reputation engine:
// an N-way lock-striped store of exponentially time-decayed outcome
// counters keyed by sender address, sending IP and sender domain, and a
// scoring function that folds the three keys into one verdict band
// (trusted / neutral / suspect).
//
// The motivation comes straight out of the measurement: CR filter
// outcomes are dominated by sender history — whitelisted contacts sail
// through while repeat spam sources are cheaply rejectable — yet the
// base pipeline re-evaluates every message from scratch. Aggregated
// per-sender historical features alone classify spammers effectively
// (Menahem & Puzis, "Detecting Spammers via Aggregated Historical Data
// Set"), so the engine consults this store *before* the probe-capable
// auxiliary filters: a trusted sender skips them entirely (the fast
// path), a suspect sender is tightened via the filters.Reputation chain
// stage.
//
// All time arithmetic runs on the injected clock, so simulated
// deployments decay on virtual time and runs stay deterministic. The
// store is advisory: a write failure (modelled through the fault
// injector, target "reputation") is fail-open and never blocks a
// message.
package reputation

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/wal"
)

// Outcome is one classification event recorded against a sender.
type Outcome int

// Recorded outcomes. Each maps to one decayed counter.
const (
	// Delivered: a message from the sender reached a user's inbox.
	Delivered Outcome = iota
	// Challenged: a challenge was emitted for the sender's message.
	Challenged
	// Solved: the sender solved a CAPTCHA (the strongest positive
	// signal — bots essentially never do, §4 of the paper).
	Solved
	// Spam: a message was classified as spam (filter-dropped or sent by
	// a blacklisted sender).
	Spam
	// Bounced: a challenge to the sender bounced (no such user / no such
	// domain) — the spoofed-sender signature, 71.7% of the study's
	// challenge bounces.
	Bounced
	// RBLHit: the sender's message was dropped on a blocklist match.
	RBLHit

	// nOutcomes sizes the counter vector.
	nOutcomes = 6
)

// String returns the counter label.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Challenged:
		return "challenged"
	case Solved:
		return "solved"
	case Spam:
		return "spam"
	case Bounced:
		return "bounced"
	case RBLHit:
		return "rbl-hit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Band is the folded verdict over a sender's three keys.
type Band int

// Verdict bands.
const (
	// Neutral: not enough evidence either way; the full pipeline runs.
	Neutral Band = iota
	// Trusted: strong positive history; the engine skips the auxiliary
	// probe filters for this sender (fast path).
	Trusted
	// Suspect: strong negative history; the filters.Reputation chain
	// stage drops the message before the expensive probes run.
	Suspect
)

// String returns the band label.
func (b Band) String() string {
	switch b {
	case Trusted:
		return "trusted"
	case Suspect:
		return "suspect"
	default:
		return "neutral"
	}
}

// outcomeWeights score one decayed counter vector: deliveries and
// solves push positive, spam/bounce/blocklist evidence pushes negative,
// and a bare challenge is neutral (being unknown is not a crime).
var outcomeWeights = [nOutcomes]float64{
	Delivered:  1.0,
	Challenged: 0,
	Solved:     2.0,
	Spam:       -1.5,
	Bounced:    -1.0,
	RBLHit:     -2.0,
}

// Config parameterises a Store. Zero values get defaults.
type Config struct {
	// Shards is the lock-stripe count, rounded up to a power of two
	// (default 16). More shards means less contention under parallel
	// Record/Lookup load.
	Shards int
	// HalfLife is the exponential-decay half-life of every counter
	// (default 7 days): evidence older than ~7 half-lives carries <1%
	// weight, so a sender's past neither dooms nor blesses it forever.
	HalfLife time.Duration
	// TrustThreshold is the minimum folded score for Trusted (default
	// 0.5) and SuspectThreshold the maximum for Suspect (default -0.4).
	TrustThreshold   float64
	SuspectThreshold float64
	// MinObservations is the minimum decayed evidence mass (across all
	// contributing keys) before leaving Neutral (default 4): one lucky
	// delivery must not open the fast path.
	MinObservations float64
	// AddrWeight/DomainWeight/IPWeight fold the three key scores
	// (defaults 0.6/0.25/0.15). Keys without history are excluded and
	// the remaining weights renormalised.
	AddrWeight, DomainWeight, IPWeight float64
	// Injector is an optional fault source (target "reputation"):
	// injected faults drop writes and error lookups, exercising the
	// fail-open advisory path.
	Injector faults.Injector
}

// DefaultConfig returns the stock parameters.
func DefaultConfig() Config {
	return Config{
		Shards:           16,
		HalfLife:         7 * 24 * time.Hour,
		TrustThreshold:   0.5,
		SuspectThreshold: -0.4,
		MinObservations:  4,
		AddrWeight:       0.6,
		DomainWeight:     0.25,
		IPWeight:         0.15,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	// Round up to a power of two so the shard index is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.HalfLife <= 0 {
		c.HalfLife = d.HalfLife
	}
	if c.TrustThreshold == 0 {
		c.TrustThreshold = d.TrustThreshold
	}
	if c.SuspectThreshold == 0 {
		c.SuspectThreshold = d.SuspectThreshold
	}
	if c.MinObservations <= 0 {
		c.MinObservations = d.MinObservations
	}
	if c.AddrWeight <= 0 && c.DomainWeight <= 0 && c.IPWeight <= 0 {
		c.AddrWeight, c.DomainWeight, c.IPWeight = d.AddrWeight, d.DomainWeight, d.IPWeight
	}
	return c
}

// entry is one key's decayed counter vector. counts are normalised to
// `last`: reading at time t scales them by 2^(-(t-last)/halfLife).
// lsn is the WAL sequence number of the latest observation folded in
// (zero when no journal is attached); replay uses it to skip records
// whose effect is already present.
type entry struct {
	counts [nOutcomes]float64
	last   time.Time
	lsn    uint64
}

// decayTo folds elapsed time into the counters.
func (e *entry) decayTo(now time.Time, halfLife time.Duration) {
	dt := now.Sub(e.last)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / float64(halfLife))
	for i := range e.counts {
		e.counts[i] *= f
	}
	e.last = now
}

// mass returns the total decayed evidence weight. Bare challenges are
// excluded: an outstanding challenge says nothing either way (most spam
// challenges simply go unanswered), so it must neither dilute a good
// sender's score nor push a silent one toward a band on its own.
func (e *entry) mass() float64 {
	var m float64
	for i, c := range e.counts {
		if Outcome(i) == Challenged {
			continue
		}
		m += c
	}
	return m
}

// score reduces the counter vector to [-2, +2]-ish: the weighted
// outcome sum over the evidence mass, smoothed by a +2 pseudo-count so
// sparse histories stay near zero.
func (e *entry) score() float64 {
	var s float64
	for i, c := range e.counts {
		s += outcomeWeights[i] * c
	}
	return s / (e.mass() + 2)
}

// scoredAt evaluates the entry at `now` without mutating it: the value
// receiver copies the counter vector, the copy decays, the original is
// untouched. Read paths (Lookup, TopSenders) must stay pure so stored
// bits are exactly the fold of the recorded observation sequence — the
// invariant the WAL crash-recovery experiment checks byte-for-byte.
func (e entry) scoredAt(now time.Time, halfLife time.Duration) (score, mass float64) {
	(&e).decayTo(now, halfLife)
	return e.score(), e.mass()
}

// shard is one lock stripe.
type shard struct {
	mu      sync.Mutex
	entries map[repKey]*entry
}

// Store is the sharded reputation store. It is safe for concurrent use;
// Record and Lookup touch only the shards owning the consulted keys.
type Store struct {
	cfg Config
	clk clock.Clock

	shards []shard
	mask   uint32

	// walMu serialises (journal append, shard apply) pairs and Export
	// when a change journal is attached, so per-entry LSNs are applied
	// in order and a snapshot never misses a journalled observation.
	// Without a journal the hot path never touches it.
	walMu   sync.Mutex
	journal func(wal.Record) uint64

	records       atomic.Int64
	lookups       atomic.Int64
	droppedWrites atomic.Int64
	failedLookups atomic.Int64
}

// NewStore builds a store on the given clock.
func NewStore(cfg Config, clk clock.Clock) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, clk: clk, shards: make([]shard, cfg.Shards), mask: uint32(cfg.Shards - 1)}
	for i := range s.shards {
		s.shards[i].entries = make(map[repKey]*entry)
	}
	return s
}

// Config returns the effective (default-filled) configuration.
func (s *Store) Config() Config { return s.cfg }

// Key namespaces. One flat sharded map holds all three key kinds. The
// prefixed-string form ("a:bob@x.com", "d:x.com", "i:192.0.2.1") is the
// external representation used by exports and reports; internally keys
// are comparable structs so the hot path never concatenates.
const (
	addrPrefix   = "a:"
	domainPrefix = "d:"
	ipPrefix     = "i:"
)

// repKey is a store key: a kind tag ('a' address, 'd' domain, 'i' IP)
// plus the identity split into local/domain parts so address keys reuse
// the message's own strings. Using a comparable struct instead of the
// prefixed string means Record/Lookup build keys with zero allocations
// (for the common all-lower-case local part, ToLower returns its input).
type repKey struct {
	kind  byte
	local string // address keys only; lower-cased
	name  string // domain ('a'/'d') or IP ('i')
}

// String returns the external prefixed form ("a:bob@x.com", "d:x.com",
// "i:192.0.2.1").
func (k repKey) String() string {
	if k.kind == 'a' {
		return string([]byte{k.kind, ':'}) + k.local + "@" + k.name
	}
	return string([]byte{k.kind, ':'}) + k.name
}

// parseRepKey inverts String (for Import of exported snapshots).
func parseRepKey(s string) (repKey, bool) {
	if len(s) < 2 || s[1] != ':' {
		return repKey{}, false
	}
	k := repKey{kind: s[0], name: s[2:]}
	if k.kind == 'a' {
		at := strings.LastIndexByte(k.name, '@')
		if at < 0 {
			return repKey{}, false
		}
		k.local, k.name = k.name[:at], k.name[at+1:]
	}
	return k, true
}

// addrKey builds the canonical address key for a sender.
func addrKey(sender mail.Address) repKey {
	return repKey{kind: 'a', local: strings.ToLower(sender.Local), name: sender.Domain}
}

// keysFor fills keys with the store keys a message contributes to and
// returns how many were set. The null sender has no usable identity.
func keysFor(sender mail.Address, ip string, keys *[3]repKey) int {
	n := 0
	if !sender.IsNull() {
		keys[n] = addrKey(sender)
		keys[n+1] = repKey{kind: 'd', name: sender.Domain}
		n += 2
	}
	if ip != "" {
		keys[n] = repKey{kind: 'i', name: ip}
		n++
	}
	return n
}

// shardFor maps a key to its lock stripe (FNV-1a over the key parts,
// computed inline — no []byte conversion, no hasher allocation).
func (s *Store) shardFor(key repKey) *shard {
	h := uint32(2166136261)
	h = (h ^ uint32(key.kind)) * 16777619
	for i := 0; i < len(key.local); i++ {
		h = (h ^ uint32(key.local[i])) * 16777619
	}
	h = (h ^ uint32('@')) * 16777619
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint32(key.name[i])) * 16777619
	}
	return &s.shards[h&s.mask]
}

// Record adds one outcome observation for the sender. An injected
// store fault drops the write (counted, never surfaced): reputation is
// advisory, so a broken store must not block the mail path.
func (s *Store) Record(sender mail.Address, ip string, o Outcome) {
	var keys [3]repKey
	n := keysFor(sender, ip, &keys)
	if n == 0 {
		return
	}
	if inj := s.cfg.Injector; inj != nil {
		if d := inj.Decide("reputation", 0); d.Err != nil {
			s.droppedWrites.Add(1)
			return
		}
	}
	now := s.clk.Now()
	if s.journal != nil {
		// Journal first (the append assigns the LSN), then apply, with
		// the pair serialised so shard state never lags a smaller LSN
		// behind a larger one and Export sees every journalled record.
		s.walMu.Lock()
		lsn := s.journal(wal.Record{Time: now, Op: wal.OpReputation, Origin: o.String(),
			Sender: sender.String(), IP: ip, Value: int64(o)})
		s.apply(keys[:n], o, now, lsn)
		s.walMu.Unlock()
	} else {
		s.apply(keys[:n], o, now, 0)
	}
	s.records.Add(1)
}

// SetJournal installs the change-journal hook (wal.Journal.Emit). The
// hook appends one observation record and returns its LSN (or zero if
// the append was dropped). It must be installed before the store sees
// concurrent use and must not call back into the store.
func (s *Store) SetJournal(emit func(wal.Record) uint64) {
	s.journal = emit
}

// apply folds one observation into the owning shards. lsn is zero when
// no journal is attached.
func (s *Store) apply(keys []repKey, o Outcome, at time.Time, lsn uint64) {
	for _, key := range keys {
		sh := s.shardFor(key)
		sh.mu.Lock()
		e := sh.entries[key]
		if e == nil {
			e = &entry{last: at}
			sh.entries[key] = e
		}
		e.decayTo(at, s.cfg.HalfLife)
		e.counts[o]++
		if lsn > e.lsn {
			e.lsn = lsn
		}
		sh.mu.Unlock()
	}
}

// Apply re-applies a journalled observation during WAL replay; records
// of other stores are ignored. The per-entry LSN guard makes it
// idempotent: a record whose effect is already in the snapshot
// (entry.lsn >= record LSN) is skipped, so replaying any in-order
// suffix of the journal converges to the exact live-store bits.
func (s *Store) Apply(r wal.Record) error {
	if r.Op != wal.OpReputation {
		return nil
	}
	sender, err := mail.ParseAddress(r.Sender)
	if err != nil {
		return fmt.Errorf("reputation: record %d sender %q: %v", r.LSN, r.Sender, err)
	}
	o, at, lsn := Outcome(r.Value), r.Time, r.LSN
	var keys [3]repKey
	n := keysFor(sender, r.IP, &keys)
	for _, key := range keys[:n] {
		sh := s.shardFor(key)
		sh.mu.Lock()
		e := sh.entries[key]
		if e == nil {
			e = &entry{last: at}
			sh.entries[key] = e
		}
		if lsn > e.lsn {
			e.decayTo(at, s.cfg.HalfLife)
			e.counts[o]++
			e.lsn = lsn
		}
		sh.mu.Unlock()
	}
	return nil
}

// KeyScore is one key's contribution to a verdict.
type KeyScore struct {
	Key   string
	Score float64
	Mass  float64
}

// Verdict is the folded reputation of one (sender, IP) pair.
type Verdict struct {
	Band  Band
	Score float64
	// Mass is the total decayed evidence behind the verdict.
	Mass float64
	// Keys lists the contributing keys (only those with history).
	Keys []KeyScore
}

// Lookup folds the sender's three keys into a verdict. The error path
// exists only under fault injection (store unavailable); callers treat
// it as Neutral / fail-open.
func (s *Store) Lookup(sender mail.Address, ip string) (Verdict, error) {
	s.lookups.Add(1)
	if inj := s.cfg.Injector; inj != nil {
		if d := inj.Decide("reputation", 0); d.Err != nil {
			s.failedLookups.Add(1)
			return Verdict{}, fmt.Errorf("reputation: store unavailable: %w", d.Err)
		}
	}
	return s.verdict(sender, ip), nil
}

// verdict is Lookup without the fault gate.
func (s *Store) verdict(sender mail.Address, ip string) Verdict {
	now := s.clk.Now()
	var keys [3]repKey
	var weights [3]float64
	n := 0
	if !sender.IsNull() {
		keys[0], weights[0] = addrKey(sender), s.cfg.AddrWeight
		keys[1], weights[1] = repKey{kind: 'd', name: sender.Domain}, s.cfg.DomainWeight
		n = 2
	}
	if ip != "" {
		keys[n], weights[n] = repKey{kind: 'i', name: ip}, s.cfg.IPWeight
		n++
	}
	var v Verdict
	var wsum, acc float64
	for i := 0; i < n; i++ {
		key, weight := keys[i], weights[i]
		sh := s.shardFor(key)
		sh.mu.Lock()
		e := sh.entries[key]
		var ks KeyScore
		found := false
		if e != nil {
			score, mass := e.scoredAt(now, s.cfg.HalfLife)
			ks = KeyScore{Key: key.String(), Score: score, Mass: mass}
			found = true
		}
		sh.mu.Unlock()
		if !found {
			continue
		}
		v.Keys = append(v.Keys, ks)
		v.Mass += ks.Mass
		acc += weight * ks.Score
		wsum += weight
	}
	if wsum > 0 {
		v.Score = acc / wsum
	}
	switch {
	case v.Mass < s.cfg.MinObservations:
		v.Band = Neutral
	case v.Score >= s.cfg.TrustThreshold:
		v.Band = Trusted
	case v.Score <= s.cfg.SuspectThreshold:
		v.Band = Suspect
	default:
		v.Band = Neutral
	}
	return v
}

// Score is Lookup for callers that do not care about the fault channel
// (reports, benchmarks): injected faults are ignored.
func (s *Store) Score(sender mail.Address, ip string) Verdict {
	return s.verdict(sender, ip)
}

// Stats is an operational snapshot of the store.
type Stats struct {
	Entries       int
	Records       int64
	Lookups       int64
	DroppedWrites int64
	FailedLookups int64
	// ShardOccupancy is the entry count per lock stripe, for the admin
	// UI's contention view.
	ShardOccupancy []int
}

// Stats returns the current operational counters.
func (s *Store) Stats() Stats {
	st := Stats{ShardOccupancy: make([]int, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.ShardOccupancy[i] = len(sh.entries)
		st.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	st.Records, st.Lookups = s.records.Load(), s.lookups.Load()
	st.DroppedWrites, st.FailedLookups = s.droppedWrites.Load(), s.failedLookups.Load()
	return st
}

// EntrySummary is one key's standing, for Top-K reports.
type EntrySummary struct {
	Key   string
	Band  Band
	Score float64
	Mass  float64
}

// TopSenders returns the k highest-evidence sender-address entries in
// the given band, ordered by decayed evidence mass (ties by key). Each
// entry is banded on its own score with the store thresholds — the
// per-key view the /reputation admin page shows.
func (s *Store) TopSenders(band Band, k int) []EntrySummary {
	now := s.clk.Now()
	var out []EntrySummary
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			if key.kind != 'a' {
				continue
			}
			score, mass := e.scoredAt(now, s.cfg.HalfLife)
			sum := EntrySummary{Key: key.local + "@" + key.name, Score: score, Mass: mass}
			switch {
			case sum.Mass < s.cfg.MinObservations:
				sum.Band = Neutral
			case sum.Score >= s.cfg.TrustThreshold:
				sum.Band = Trusted
			case sum.Score <= s.cfg.SuspectThreshold:
				sum.Band = Suspect
			default:
				sum.Band = Neutral
			}
			if sum.Band == band {
				out = append(out, sum)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mass != out[j].Mass {
			return out[i].Mass > out[j].Mass
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// ExportedEntry is the serialised form of one key's counters. Counts
// are exported exactly as stored (normalised to Last), so a JSON
// round-trip reproduces scores bit-for-bit.
type ExportedEntry struct {
	Key    string             `json:"key"`
	Counts [nOutcomes]float64 `json:"counts"`
	Last   time.Time          `json:"last"`
	// LSN is the WAL sequence number of the newest observation folded
	// into the counters (zero without a journal); replay after a crash
	// skips records already covered by it.
	LSN uint64 `json:"lsn,omitempty"`
}

// Export snapshots every entry, sorted by key for deterministic output.
// With a journal attached the export is serialised against Record, so
// the snapshot reflects a clean prefix of the observation log.
func (s *Store) Export() []ExportedEntry {
	if s.journal != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
	}
	var out []ExportedEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			out = append(out, ExportedEntry{Key: key.String(), Counts: e.counts, Last: e.last, LSN: e.lsn})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Import merges exported entries into the store, replacing any existing
// entry with the same key. Restoring into a fresh store reproduces the
// exported scores exactly.
func (s *Store) Import(entries []ExportedEntry) {
	for _, ee := range entries {
		key, ok := parseRepKey(ee.Key)
		if !ok {
			continue
		}
		sh := s.shardFor(key)
		sh.mu.Lock()
		sh.entries[key] = &entry{counts: ee.Counts, last: ee.Last, lsn: ee.LSN}
		sh.mu.Unlock()
	}
}
