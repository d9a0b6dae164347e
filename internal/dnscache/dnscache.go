// Package dnscache puts a TTL cache with negative caching and
// single-flight collapse in front of the simulated resolver, and a
// memoized lookup in front of an RBL provider.
//
// Real MTAs lean on resolver caches: sender-infrastructure lookups are
// dominated by repeated queries for the same handful of domains and IPs
// (the same observation drives the aggregated-history spam detectors in
// the literature). The fleet driver exhibits exactly that skew — every
// message from a legitimate domain re-resolves "mail.<domain>", every
// probe chain re-queries the same blocklist for the same botnet IPs —
// so a small cache removes most simulated-resolver traffic from the
// per-message hot path.
//
// Coherence rules (see DESIGN.md §8):
//
//   - Cache entries expire on the *virtual* clock, never the wall clock.
//     dnssim.Server.Gen increments on every mutation (record changes,
//     RemoveDomain, FailDomain, injector swaps); each lookup compares
//     generations and flushes on change, so a cached answer can never
//     mask a mutation.
//   - The RBL memo has no TTL and needs no invalidation from its owner.
//     The provider's listing hook drops an IP's entry the moment it is
//     listed, and a cached "listed" answer expires when the clock reaches
//     the listing's end — the test IsListed itself makes.
//   - Temporary failures (timeouts, injected outages) are never cached:
//     the caller must see every one, or fault injection would be
//     silently absorbed. Authoritative negatives (NXDOMAIN / no such
//     record) are cached with a shorter TTL, as real resolvers do
//     (RFC 2308).
package dnscache

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/rbl"
)

// Cache lifetimes of positive and authoritative-negative resolver
// answers. Both are shorter than the fleet's one-hour epoch, so every
// entry expires across an epoch barrier and cached state never leaks
// ordering effects between epochs.
const (
	DefaultTTL    = 30 * time.Minute
	DefaultNegTTL = 10 * time.Minute
)

// Stats counts cache outcomes. All counters are totals since creation.
type Stats struct {
	Hits      int64 // served from a live entry without touching the backend
	NegHits   int64 // subset of Hits answered from a cached negative
	Misses    int64 // went to the backend
	Coalesced int64 // waited on another goroutine's in-flight fetch
}

// Lookups returns the total number of cache consultations.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate returns the fraction of lookups that avoided a backend query
// (plain hits plus coalesced waiters). Zero when nothing was looked up.
func (s Stats) HitRate() float64 {
	t := s.Lookups()
	if t == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(t)
}

// Options configures a Cache.
type Options struct {
	// Clock supplies the (virtual) time entries age against. Required.
	Clock clock.Clock
	// Gen is polled on every lookup; a change flushes the cache. Wire it
	// to dnssim.Server.Gen so RemoveDomain, FailDomain and fault-plan
	// transitions invalidate immediately. Required.
	Gen func() uint64
}

// entry holds one cached answer. Fields are written only by the fetching
// goroutine while it holds mu, and are immutable once the atomic ready
// flag is set (the store publishes them); expiry replaces the entry
// rather than mutating it, so a reader that observes ready may read
// every field without holding any lock (but must not mutate the answer
// slices).
type entry struct {
	mu    sync.Mutex
	ready atomic.Bool
	neg   bool      // cached negative (uses DefaultNegTTL)
	exp   time.Time // expiry on the virtual clock
	err   error     // cached authoritative error (NXDOMAIN / no record)

	list []string // A / TXT answers
	mxs  []dnssim.MX
	host string // PTR answer
	ok   bool   // Resolvable answer
}

// ckey identifies one cached question: a record kind plus the queried
// name. A comparable struct key avoids the "a:"+host style concatenation
// the old flat map needed on every lookup.
type ckey struct {
	kind uint8 // one of the q* constants
	name string
}

// Query kinds.
const (
	qA uint8 = iota
	qMX
	qPTR
	qTXT
	qResolvable
)

// cacheStripes is the lock-stripe count. Lookups hash the key to a
// stripe, so concurrent lanes resolving different names proceed without
// contending on one cache-wide mutex.
const cacheStripes = 8

// cacheShard is one lock stripe with its own generation word: stripes
// notice a backend mutation independently, each flushing its own map on
// first touch after the change. The map is read under mu.RLock on the
// hit fast path and written under mu.Lock; gen is atomic so the fast
// path can compare it without any lock.
type cacheShard struct {
	mu      sync.RWMutex
	gen     atomic.Uint64
	entries map[ckey]*entry
}

// Cache is a read-through TTL cache over a dnssim.Resolver. It
// implements dnssim.Resolver itself (plus ResolvableErr), so it can be
// dropped in anywhere a resolver is accepted — core.Engine, the
// reverse-DNS filter, spf.Checker, the workload generator.
type Cache struct {
	backend dnssim.Resolver
	opts    Options

	shards [cacheStripes]cacheShard

	hits      atomic.Int64
	negHits   atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
}

// New returns a cache over backend. Options.Clock and Options.Gen are
// required.
func New(backend dnssim.Resolver, opts Options) *Cache {
	if opts.Clock == nil || opts.Gen == nil {
		panic("dnscache: Options.Clock and Options.Gen are required")
	}
	c := &Cache{backend: backend, opts: opts}
	gen := opts.Gen()
	for i := range c.shards {
		c.shards[i].entries = make(map[ckey]*entry)
		c.shards[i].gen.Store(gen)
	}
	return c
}

// shardFor maps a key to its stripe (FNV-1a over kind + name).
func (c *Cache) shardFor(key ckey) *cacheShard {
	h := uint32(2166136261)
	h = (h ^ uint32(key.kind)) * 16777619
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint32(key.name[i])) * 16777619
	}
	return &c.shards[h%cacheStripes]
}

// checkGenLocked flushes the shard if the backend generation moved.
// Caller holds sh.mu.
func (c *Cache) checkGenLocked(sh *cacheShard) {
	if g := c.opts.Gen(); g != sh.gen.Load() {
		sh.gen.Store(g)
		clear(sh.entries)
	}
}

// do returns the live entry for key, fetching it at most once per
// expiry/flush regardless of how many goroutines ask concurrently
// (per-entry-mutex single-flight: the fetcher publishes the entry with
// its lock held, so same-key lookups queue behind the one backend call).
func (c *Cache) do(key ckey, fetch func(*entry) error) (*entry, error) {
	sh := c.shardFor(key)
	// Hit fast path: a ready, unexpired entry in a generation-current
	// shard — the overwhelmingly common case — is served under the read
	// lock alone, so concurrent lanes resolving the same hot names never
	// serialize. The second Gen read after the map lookup closes the
	// race with a concurrent mutation: if the generation is still
	// unchanged, the entry provably predates no mutation.
	if c.opts.Gen() == sh.gen.Load() {
		sh.mu.RLock()
		e := sh.entries[key]
		sh.mu.RUnlock()
		if e != nil && e.ready.Load() &&
			c.opts.Clock.Now().Before(e.exp) &&
			c.opts.Gen() == sh.gen.Load() {
			c.hits.Add(1)
			if e.neg {
				c.negHits.Add(1)
			}
			return e, e.err
		}
	}
	for {
		sh.mu.Lock()
		c.checkGenLocked(sh)
		e := sh.entries[key]
		if e == nil {
			e = &entry{}
			e.mu.Lock() // we are the fetcher; publish locked
			sh.entries[key] = e
			c.misses.Add(1)
			sh.mu.Unlock()

			err := fetch(e)
			if err != nil && dnssim.IsTemporary(err) {
				// Never cache a transient failure: unpublish so the
				// next lookup retries the backend, and surface it.
				e.mu.Unlock()
				sh.mu.Lock()
				if sh.entries[key] == e {
					delete(sh.entries, key)
				}
				sh.mu.Unlock()
				return nil, err
			}
			e.err = err
			e.neg = e.neg || err != nil
			ttl := DefaultTTL
			if e.neg {
				ttl = DefaultNegTTL
			}
			e.exp = c.opts.Clock.Now().Add(ttl)
			e.ready.Store(true)
			e.mu.Unlock()
			return e, err
		}
		coalesced := !e.readyNow()
		if coalesced {
			c.coalesced.Add(1)
		}
		sh.mu.Unlock()

		e.mu.Lock() // blocks while a fetch for this key is in flight
		if !e.ready.Load() {
			// The fetcher hit a temporary error and unpublished the
			// entry while we waited; retry from the top.
			e.mu.Unlock()
			continue
		}
		expired := !c.opts.Clock.Now().Before(e.exp)
		neg, err := e.neg, e.err
		e.mu.Unlock()

		if expired {
			sh.mu.Lock()
			if sh.entries[key] == e {
				delete(sh.entries, key)
			}
			// Undo the optimistic hit/coalesced accounting? We counted
			// nothing yet for the non-coalesced path, and a coalesced
			// wait that lands on an expired entry still collapsed into
			// the earlier fetch, so the counter stands.
			sh.mu.Unlock()
			continue
		}
		if !coalesced {
			c.hits.Add(1)
			if neg {
				c.negHits.Add(1)
			}
		}
		return e, err
	}
}

// readyNow reports whether the entry's fetch has completed, without
// blocking on an in-flight fetch.
func (e *entry) readyNow() bool {
	if !e.mu.TryLock() {
		return false
	}
	r := e.ready.Load()
	e.mu.Unlock()
	return r
}

// LookupA implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupA(host string) ([]string, error) {
	e, err := c.do(ckey{qA, host}, func(e *entry) error {
		v, err := c.backend.LookupA(host)
		e.list = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.list, nil
}

// LookupMX implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupMX(domain string) ([]dnssim.MX, error) {
	e, err := c.do(ckey{qMX, domain}, func(e *entry) error {
		v, err := c.backend.LookupMX(domain)
		e.mxs = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.mxs, nil
}

// LookupPTR implements dnssim.Resolver.
func (c *Cache) LookupPTR(ip string) (string, error) {
	e, err := c.do(ckey{qPTR, ip}, func(e *entry) error {
		v, err := c.backend.LookupPTR(ip)
		e.host = v
		return err
	})
	if err != nil {
		return "", err
	}
	return e.host, nil
}

// LookupTXT implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupTXT(domain string) ([]string, error) {
	e, err := c.do(ckey{qTXT, domain}, func(e *entry) error {
		v, err := c.backend.LookupTXT(domain)
		e.list = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.list, nil
}

// resolvableProber matches dnssim.Server's combined "any record at all"
// probe with its temporary-failure channel.
type resolvableProber interface {
	ResolvableErr(domain string) (bool, error)
}

// ResolvableErr caches the MTA-IN sender-domain probe. An unresolvable
// domain is the NXDOMAIN case and is cached with the negative TTL;
// temporary resolver failures pass through uncached.
func (c *Cache) ResolvableErr(domain string) (bool, error) {
	e, err := c.do(ckey{qResolvable, domain}, func(e *entry) error {
		ok, err := c.probeResolvable(domain)
		e.ok = ok
		e.neg = err == nil && !ok
		return err
	})
	if err != nil {
		return false, err
	}
	return e.ok, nil
}

// Resolvable is ResolvableErr with the error folded into "no".
func (c *Cache) Resolvable(domain string) bool {
	ok, _ := c.ResolvableErr(domain)
	return ok
}

func (c *Cache) probeResolvable(domain string) (bool, error) {
	if p, ok := c.backend.(resolvableProber); ok {
		return p.ResolvableErr(domain)
	}
	// Generic fallback: any MX or A record makes the domain resolvable;
	// a temporary failure on either probe is surfaced, not cached.
	if _, err := c.backend.LookupMX(domain); err == nil {
		return true, nil
	} else if dnssim.IsTemporary(err) {
		return false, err
	}
	if _, err := c.backend.LookupA(domain); err == nil {
		return true, nil
	} else if dnssim.IsTemporary(err) {
		return false, err
	}
	return false, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		NegHits:   c.negHits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// Len returns the number of live entries (expired ones included until
// their next touch).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// rblStripes is the RBL memo's lock-stripe count: concurrent lanes
// querying different botnet IPs proceed without a cache-wide mutex.
const rblStripes = 8

// rblShard is one lock stripe of the RBL memo. The map is read under
// mu.RLock on the hit fast path and written under mu.Lock.
type rblShard struct {
	mu      sync.RWMutex
	entries map[string]rblEntry
}

// RBLCache memoizes rbl.Provider lookups. It satisfies the
// filters.RBLBackend surface, so filters.NewRBL accepts it in place of
// the raw provider.
//
// The memo returns exactly what the provider would, with no TTL and
// nothing for its owner to invalidate. A "not listed" answer can only
// turn into "listed" through AddStatic or a trap hit that opens a
// listing; the provider reports both through its listing hook, which
// drops the IP's entry, so negative entries (the ~95% of queries for
// never-listed IPs) live until then. A "listed" answer can only end when
// the listing lapses, so a positive entry carries the listing's end and
// expires when the clock reaches it; static listings never end.
//
// The memo is not meant for a provider with a fault injector: a stale
// injected answer would be kept like a true one. Callers leave it off
// under a fault plan.
type RBLCache struct {
	p   *rbl.Provider
	clk clock.Clock

	shards [rblStripes]rblShard

	hits    atomic.Int64
	negHits atomic.Int64
	misses  atomic.Int64
}

type rblEntry struct {
	listed bool
	until  time.Time // end of a timed listing; zero: until the hook drops it
}

// NewRBL returns a memo over p and installs it as p's listing hook. clk
// must be p's clock, the one its listings expire against. The duration
// parameter is unused and kept for source compatibility.
// One memo per provider: a later NewRBL over p takes over the hook, and
// the earlier memo must no longer be queried.
func NewRBL(p *rbl.Provider, clk clock.Clock, _ time.Duration) *RBLCache {
	if clk == nil {
		panic("dnscache: NewRBL requires a clock")
	}
	c := &RBLCache{p: p, clk: clk}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]rblEntry)
	}
	p.SetOnListed(c.invalidate)
	return c
}

// Name returns the underlying provider's name.
func (c *RBLCache) Name() string { return c.p.Name() }

// shardFor maps an IP to its stripe (FNV-1a).
func (c *RBLCache) shardFor(ip string) *rblShard {
	h := uint32(2166136261)
	for i := 0; i < len(ip); i++ {
		h = (h ^ uint32(ip[i])) * 16777619
	}
	return &c.shards[h%rblStripes]
}

// Query returns the memoized listing state for ip. Errors (injected
// outages/timeouts) are never cached.
func (c *RBLCache) Query(ip string) (bool, error) {
	sh := c.shardFor(ip)
	sh.mu.RLock()
	e, ok := sh.entries[ip]
	sh.mu.RUnlock()
	if ok && (e.until.IsZero() || c.clk.Now().Before(e.until)) {
		c.hits.Add(1)
		if !e.listed {
			c.negHits.Add(1)
		}
		return e.listed, nil
	}
	c.misses.Add(1)
	gen := c.p.Gen()
	listed, until, err := c.p.Lookup(ip)
	if err != nil {
		return false, err
	}
	// Store only if the provider did not mutate since the lookup began.
	// The check runs under the stripe lock: a listing that bumps the
	// generation after it still reaches the hook, whose delete waits for
	// this store, so a racing listing never leaves a stale negative.
	sh.mu.Lock()
	if c.p.Gen() == gen {
		sh.entries[ip] = rblEntry{listed: listed, until: until}
	}
	sh.mu.Unlock()
	return listed, nil
}

// invalidate is the provider's listing hook: it drops ip's entry.
func (c *RBLCache) invalidate(ip string) {
	sh := c.shardFor(ip)
	sh.mu.Lock()
	delete(sh.entries, ip)
	sh.mu.Unlock()
}

// Stats returns a snapshot of the memo counters.
func (c *RBLCache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		NegHits: c.negHits.Load(),
		Misses:  c.misses.Load(),
	}
}
