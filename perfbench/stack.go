package main

// The product stack, wired the way cmd/crserver wires it: resolver and
// blocklist caches in front of the recorded world's DNS and blocklist, a
// hardened reputation -> antivirus -> RBL chain, whitelist and reputation
// stores journalled to a WAL (booted through store.Recover from the
// seeded snapshot), the outbound challenge queue with its durable spool,
// the admission controller, and the gateway. With a recorder the
// benchmark's timing wrappers sit at the public seams; without one the
// stack is exactly crserver's.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnscache"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/gateway"
	"repro/internal/mailbox"
	"repro/internal/outbound"
	"repro/internal/overload"
	"repro/internal/reputation"
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// walFsyncInterval is crserver's default group-commit window.
const walFsyncInterval = 2 * time.Millisecond

type stackConfig struct {
	clk      clock.Clock
	walDir   string
	snapPath string
	dial     outbound.Dialer
	rec      *recorder // nil = untraced
}

type stack struct {
	cfg      stackConfig
	eng      *core.Engine
	backend  smtp.Backend // the gateway, or its traced wrapper
	ctl      *overload.Controller
	dnsCache *dnscache.Cache
	rblCache *dnscache.RBLCache
	stores   store.Stores
	log      *wal.Log
	queue    *outbound.Queue

	// Traced-run instruments (nil or zero when untraced).
	traced     *tracedBackend
	resolver   *tracedResolver
	probers    []*timedProber
	walRecords atomic.Int64
	serviceMu  sync.Mutex
	service    durations // engine service times from the observer
}

func newStack(rec *recording, sc stackConfig) (*stack, error) {
	s := &stack{cfg: sc}
	clk := sc.clk
	dns := rec.dns
	s.dnsCache = dnscache.New(dns, dnscache.Options{Clock: clk, Gen: dns.Gen})
	s.rblCache = dnscache.NewRBL(rec.filterBL, clk, 0)
	var resolver dnssim.Resolver = s.dnsCache
	var rblBackend filters.RBLBackend = s.rblCache
	if sc.rec != nil {
		s.resolver = &tracedResolver{inner: s.dnsCache, rec: sc.rec}
		resolver = s.resolver
		rblBackend = &tracedRBL{RBLBackend: s.rblCache, rec: sc.rec}
	}

	harden := func(pr filters.Prober, mode filters.DegradeMode) filters.Filter {
		if sc.rec != nil {
			tp := &timedProber{Prober: pr, rec: sc.rec, span: "filters." + pr.Name()}
			s.probers = append(s.probers, tp)
			pr = tp
		}
		return filters.Harden(pr, mode, filters.HardenOpts{
			Breaker: resilience.NewBreaker(pr.Name(), resilience.DefaultBreakerConfig(), clk),
			Seed:    1,
		})
	}
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	chain := filters.NewChain(
		harden(filters.NewReputation(rep), filters.FailOpen),
		harden(filters.NewAntivirus(), filters.FailClosed),
		harden(filters.NewRBL(rblBackend), filters.FailOpen),
	)
	wl := whitelist.NewStore(clk)
	sp := spool.NewState()
	s.stores = store.Stores{Whitelist: wl, Reputation: rep, Spool: sp}
	boot, err := store.Recover(sc.snapPath, s.walOptions(), s.stores)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	s.log = boot.Log
	journal := wal.NewJournal(s.log)
	if sc.rec != nil {
		journal.SetTap(func(wal.Record) { s.walRecords.Add(1) })
	}
	journal.Attach(wl, rep, nil)

	dial := sc.dial
	if sc.rec != nil {
		dial = tracedDial(sc.rec, dial)
	}
	s.queue = outbound.NewQueue(outbound.Config{
		Dial:       dial,
		HeloDomain: rec.cfg.Domains[0],
		MaxQueued:  1000,
		Now:        clk.Now,
		Spool:      sp,
		Journal:    journal.Emit,
	})
	s.queue.Restore()
	var send core.ChallengeSender = s.queue.Enqueue
	if sc.rec != nil {
		send = tracedSender(sc.rec, send)
	}

	cfg := rec.cfg
	cfg.QuarantineTTL = 30 * 24 * time.Hour
	s.eng = core.New(cfg, clk, resolver, chain, wl, send)
	s.eng.SetReputation(rep)
	s.ctl = overload.New(overload.Config{Name: cfg.Name, Clock: clk})
	observe := s.ctl.Observe
	if sc.rec != nil {
		observe = func(d time.Duration) {
			s.serviceMu.Lock()
			s.service.add(d)
			s.serviceMu.Unlock()
			s.ctl.Observe(d)
		}
	}
	s.eng.SetServiceObserver(observe)
	s.eng.SetPressure(s.ctl.Pressured)
	s.eng.SetInboxSink(mailbox.NewStore().Sink())
	for _, u := range rec.users {
		s.eng.AddUser(u)
	}
	for _, b := range rec.banned {
		s.eng.RejectSender(b)
	}
	gw := gateway.New(s.eng, gateway.WithOverload(s.ctl))
	s.backend = gw
	if sc.rec != nil {
		s.traced = &tracedBackend{inner: gw, rec: sc.rec}
		s.backend = s.traced
	}
	return s, nil
}

func (s *stack) walOptions() wal.Options {
	return wal.Options{Dir: s.cfg.walDir, FsyncInterval: walFsyncInterval, SegmentBytes: 4 << 20}
}

// exportStores renders the durable stores as a snapshot for byte comparison.
func exportStores(st store.Stores) ([]byte, error) {
	var b bytes.Buffer
	err := store.Save(&b, "perfbench", st, 0, time.Time{})
	return b.Bytes(), err
}

// verifyRecovery syncs and closes the log, recovers the WAL into fresh
// stores on the same clock and compares their export with the live
// stores': every acknowledged mutation must survive.
func (s *stack) verifyRecovery() error {
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	live, err := exportStores(s.stores)
	if err != nil {
		return err
	}
	if err := s.log.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	clk := s.cfg.clk
	fresh := store.Stores{
		Whitelist:  whitelist.NewStore(clk),
		Reputation: reputation.NewStore(reputation.DefaultConfig(), clk),
		Spool:      spool.NewState(),
	}
	boot, err := store.Recover(s.cfg.snapPath, s.walOptions(), fresh)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer boot.Log.Close()
	got, err := exportStores(fresh)
	if err != nil {
		return err
	}
	if !bytes.Equal(live, got) {
		return fmt.Errorf("recovered stores differ from the live stores (%d vs %d bytes exported)", len(got), len(live))
	}
	return nil
}

// fates is the engine's dispatch outcome per accepted message.
func fates(m core.Metrics) int64 { return m.SpoolWhite + m.SpoolBlack + m.SpoolGray }

// productLayers reports the per-layer metrics every stack-driving
// workload shares, normalised by msgs messages presented.
func (s *stack) productLayers(m metrics, rec *recorder, msgs int64) {
	n := float64(msgs)
	em := s.eng.Metrics()
	spans := rec.byName()

	m.set("gateway.sender_us_p50", "us", median(spans["gateway.sender"]))
	m.set("gateway.rcpt_us_p50", "us", median(spans["gateway.rcpt"]))
	m.set("gateway.deliver_us_p50", "us", median(spans["gateway.deliver"]))
	m.set("gateway.deliver_us_p99", "us", quantile(spans["gateway.deliver"], 0.99))
	m.set("gateway.reply_4xx", "count", float64(s.traced.reply4xx.Load()))
	m.set("gateway.reply_5xx", "count", float64(s.traced.reply5xx.Load()))

	om := s.ctl.Metrics()
	m.set("overload.wait_us_p99", "us", float64(om.DelayQuantile(0.99))/1e3)
	m.set("overload.shed", "count", float64(om.ShedTotal()))
	m.set("overload.limit_end", "count", om.Limit)

	m.set("core.service_us_p50", "us", median(s.service))
	m.set("core.service_us_p99", "us", quantile(s.service, 0.99))
	coreShares(m, em, msgs)
	m.set("core.quarantine_end", "count", float64(s.eng.QuarantineLen()))

	for _, p := range s.probers {
		name := "filters." + p.Name()
		calls := float64(p.calls.Load())
		m.set(name+".calls", "count", calls)
		m.set(name+".probe_us_p50", "us", median(spans[p.span]))
		m.set(name+".drop_ratio", "ratio", ratio(float64(p.drops.Load()), calls))
	}

	m.set("dnscache.hit_ratio", "ratio", s.dnsCache.Stats().HitRate())
	m.set("dnscache.lookups_per_msg", "lookups/msg", ratio(float64(s.resolver.lookups.Load()), n))
	m.set("rblcache.hit_ratio", "ratio", s.rblCache.Stats().HitRate())

	wm := s.log.Metrics()
	m.set("wal.records_per_msg", "records/msg", ratio(float64(s.walRecords.Load()), n))
	m.set("wal.bytes_per_msg", "B/msg", ratio(float64(wm.Bytes), n))
	m.set("wal.records_per_fsync", "records/fsync", ratio(float64(wm.Appends), float64(wm.Fsyncs)))
	m.set("wal.fsyncs", "count", float64(wm.Fsyncs))

	stats := s.queue.Stats()
	var attempts, terminal int
	for _, it := range s.queue.Items() {
		attempts += it.Attempts
	}
	terminal = stats[outbound.StatusSent] + stats[outbound.StatusBounced] + stats[outbound.StatusExpired]
	m.set("outbound.flush_ms_p50", "ms", median(spans["outbound.flush"])/1e3)
	m.set("outbound.attempts", "count", float64(attempts))
	m.set("outbound.terminal_ratio", "ratio", ratio(float64(terminal), float64(attempts)))
	m.set("outbound.deferred", "count", float64(s.queue.Deferred()))
	m.set("spool.depth_end", "count", float64(s.queue.SpoolDepth()))

	var wlEntries int
	for _, c := range s.stores.Whitelist.CountBySource() {
		wlEntries += c
	}
	m.set("reputation.fast_path_ratio", "ratio", ratio(float64(em.ReputationFastPath), float64(em.SpoolGray)))
	m.set("reputation.entries_end", "count", float64(s.stores.Reputation.Stats().Entries))
	m.set("whitelist.entries_end", "count", float64(wlEntries))
}

// coreShares reports the engine's decision mix as shares of the
// messages presented to the MTA-IN; messages refused at MAIL or RCPT
// never reach Receive and count as MTA drops.
func coreShares(m metrics, em core.Metrics, presented int64) {
	n := float64(presented)
	dropped := presented - em.MTAIncoming + em.TotalMTADropped()
	m.set("core.mta_drop_share", "ratio", ratio(float64(dropped), n))
	m.set("core.white_share", "ratio", ratio(float64(em.SpoolWhite), n))
	m.set("core.gray_share", "ratio", ratio(float64(em.SpoolGray), n))
	m.set("core.filter_drop_share", "ratio", ratio(float64(em.TotalFilterDropped()), n))
	m.set("core.challenges_per_kmsg", "1/kmsg", ratio(1000*float64(em.ChallengesSent), n))
}
