// Package adminui serves the user-facing quarantine pages of the CR
// product: the web rendition of the daily digest (§2), where a protected
// user reviews gray-spool messages and authorizes or deletes them — the
// manual rescue channel responsible for ~2% of the study's whitelisting
// (55,850 messages) and the delivery path with the 4-hour-to-3-day
// latency tail of Figure 7.
//
// Routes:
//
//	GET  /digest/{user}                     — pending messages for user
//	POST /digest/{user}/authorize?msg={id}  — whitelist sender + deliver
//	POST /digest/{user}/delete?msg={id}     — drop the message
//	GET  /metrics                           — engine counters, text/plain
//	GET  /reputation                        — sender-reputation standings
//	GET  /overload                          — admission-controller state
//	GET  /wal                               — write-ahead-log segments and watermarks
//	GET  /outbound                          — challenge spool and per-domain delivery health
package adminui

import (
	"fmt"
	"html/template"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dnscache"
	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/overload"
	"repro/internal/reputation"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/wal"
)

// Server renders the digest UI for one engine.
type Server struct {
	engine   *core.Engine
	dnsCache *dnscache.Cache
	rblCache *dnscache.RBLCache
	ctl      *overload.Controller
	wal      *wal.Log
	saver    *store.Saver
	outQ     *outbound.Queue
	syncFn   func() SyncStats
}

// SyncStats carries the fleet driver's sparse-barrier and
// steal-scheduler counters for /metrics. It mirrors
// workload.SyncStats field-for-field so a fleet host can adapt with a
// one-line closure, without adminui depending on the workload package.
type SyncStats struct {
	BarriersFired   int64
	BarriersSkipped int64
	Steals          int64
	TrapHitsApplied int64
}

// New returns the admin UI over engine.
func New(engine *core.Engine) *Server {
	return &Server{engine: engine}
}

// SetResolverCaches registers the process's resolver caches so /metrics
// reports their hit rates (either may be nil).
func (s *Server) SetResolverCaches(dns *dnscache.Cache, rbl *dnscache.RBLCache) {
	s.dnsCache = dns
	s.rblCache = rbl
}

// SetSyncSource registers a callback supplying the fleet's sparse-
// barrier counters so /metrics exports barrier_fired_total,
// barrier_skipped_total and steal_count_total (nil detaches).
func (s *Server) SetSyncSource(fn func() SyncStats) { s.syncFn = fn }

// SetOverload registers the deployment's admission controller so
// /metrics exports its counters and /overload renders its state.
func (s *Server) SetOverload(ctl *overload.Controller) { s.ctl = ctl }

// SetWAL registers the installation's write-ahead log so /metrics
// exports the durability counters and /wal renders the segment table.
func (s *Server) SetWAL(l *wal.Log) { s.wal = l }

// SetSaver registers the snapshot saver so /metrics exports the
// store_save_* counters.
func (s *Server) SetSaver(sv *store.Saver) { s.saver = sv }

// SetOutbound registers the installation's outbound challenge queue so
// /metrics exports the spool counters and /outbound renders per-domain
// delivery health.
func (s *Server) SetOutbound(q *outbound.Queue) { s.outQ = q }

var digestTmpl = template.Must(template.New("digest").Parse(`<!DOCTYPE html>
<html><head><title>Quarantine digest — {{.User}}</title></head><body>
<h1>Quarantined messages for {{.User}}</h1>
{{if not .Items}}<p>Nothing pending. The challenge-response filter has no held mail for you.</p>{{end}}
<table border="1" cellpadding="4">
{{range .Items}}
<tr>
  <td>{{.Queued}}</td>
  <td>{{.Sender}}</td>
  <td>{{.Subject}}</td>
  <td>
    <form method="POST" action="/digest/{{$.UserPath}}/authorize?msg={{.MsgID}}" style="display:inline">
      <button>Authorize</button>
    </form>
    <form method="POST" action="/digest/{{$.UserPath}}/delete?msg={{.MsgID}}" style="display:inline">
      <button>Delete</button>
    </form>
  </td>
</tr>
{{end}}
</table>
<p>{{len .Items}} message(s) held. Authorizing whitelists the sender permanently.</p>
</body></html>
`))

type digestItemView struct {
	MsgID   string
	Sender  string
	Subject string
	Queued  string
}

// Handler returns the http.Handler for the admin routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/digest/", s.handleDigest)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/reputation", s.handleReputation)
	mux.HandleFunc("/overload", s.handleOverload)
	mux.HandleFunc("/wal", s.handleWAL)
	mux.HandleFunc("/outbound", s.handleOutbound)
	return mux
}

// parseDigestPath splits /digest/{user}[/{action}].
func parseDigestPath(path string) (user, action string, ok bool) {
	rest := strings.TrimPrefix(path, "/digest/")
	if rest == path || rest == "" {
		return "", "", false
	}
	parts := strings.SplitN(rest, "/", 2)
	user = parts[0]
	if len(parts) == 2 {
		action = parts[1]
	}
	return user, action, true
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	userRaw, action, ok := parseDigestPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	user, err := mail.ParseAddress(userRaw)
	if err != nil {
		http.Error(w, "bad user address", http.StatusBadRequest)
		return
	}
	if !s.engine.HasUser(user) {
		http.Error(w, "no such user", http.StatusNotFound)
		return
	}

	switch {
	case action == "" && r.Method == http.MethodGet:
		s.renderDigest(w, user, userRaw)
	case action == "authorize" && r.Method == http.MethodPost:
		s.act(w, r, user, s.engine.AuthorizeFromDigest, "authorized; sender whitelisted")
	case action == "delete" && r.Method == http.MethodPost:
		s.act(w, r, user, s.engine.DeleteFromDigest, "deleted")
	case action == "" || action == "authorize" || action == "delete":
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) renderDigest(w http.ResponseWriter, user mail.Address, userRaw string) {
	pending := s.engine.PendingForUser(user)
	items := make([]digestItemView, 0, len(pending))
	for _, p := range pending {
		items = append(items, digestItemView{
			MsgID:   p.MsgID,
			Sender:  p.Sender.String(),
			Subject: p.Subject,
			Queued:  p.Queued.Format("2006-01-02 15:04"),
		})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Queued < items[j].Queued })
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = digestTmpl.Execute(w, map[string]interface{}{
		"User":     user.String(),
		"UserPath": template.URLQueryEscaper(userRaw),
		"Items":    items,
	})
}

func (s *Server) act(w http.ResponseWriter, r *http.Request, user mail.Address, fn func(mail.Address, string) error, verb string) {
	msgID := r.URL.Query().Get("msg")
	if msgID == "" {
		http.Error(w, "missing msg parameter", http.StatusBadRequest)
		return
	}
	if err := fn(user, msgID); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "message %s %s\n", msgID, verb)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	m := s.engine.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "incoming %d\n", m.MTAIncoming)
	fmt.Fprintf(w, "mta_dropped %d\n", m.TotalMTADropped())
	fmt.Fprintf(w, "spool_white %d\n", m.SpoolWhite)
	fmt.Fprintf(w, "spool_black %d\n", m.SpoolBlack)
	fmt.Fprintf(w, "spool_gray %d\n", m.SpoolGray)
	fmt.Fprintf(w, "filter_dropped %d\n", m.TotalFilterDropped())
	fmt.Fprintf(w, "filter_degraded %d\n", m.TotalFilterDegraded())
	fmt.Fprintf(w, "mta_degraded_accept %d\n", m.MTADegradedAccept)
	fmt.Fprintf(w, "mta_degraded_drop %d\n", m.MTADegradedDrop)
	fmt.Fprintf(w, "challenges_sent %d\n", m.ChallengesSent)
	fmt.Fprintf(w, "challenges_suppressed %d\n", m.ChallengeSuppressed)
	fmt.Fprintf(w, "quarantine_len %d\n", s.engine.QuarantineLen())
	fmt.Fprintf(w, "quarantine_expired %d\n", m.QuarantineExpired)
	fmt.Fprintf(w, "reputation_fast_path %d\n", m.ReputationFastPath)
	fmt.Fprintf(w, "reputation_suspect_drop %d\n", m.ReputationSuspect)
	if rep := s.engine.Reputation(); rep != nil {
		st := rep.Stats()
		fmt.Fprintf(w, "reputation_entries %d\n", st.Entries)
		fmt.Fprintf(w, "reputation_records %d\n", st.Records)
		fmt.Fprintf(w, "reputation_lookups %d\n", st.Lookups)
		fmt.Fprintf(w, "reputation_dropped_writes %d\n", st.DroppedWrites)
		fmt.Fprintf(w, "reputation_failed_lookups %d\n", st.FailedLookups)
	}
	delivered := make(map[string]int64, len(m.Delivered))
	for via, n := range m.Delivered {
		delivered[via.String()] = n
	}
	for _, via := range sortedStringKeys(delivered) {
		fmt.Fprintf(w, "delivered_%s %d\n", via, delivered[via])
	}
	fmt.Fprintf(w, "challenge_loop_suppressed_total %d\n", m.ChallengeLoopSuppressed)
	fmt.Fprintf(w, "dsn_orphaned_total %d\n", m.DSNOrphaned)
	for _, cls := range sortedStringKeys(m.ChallengeBounced) {
		fmt.Fprintf(w, "outbound_bounce_total{class=%q} %d\n", cls, m.ChallengeBounced[cls])
	}
	if s.outQ != nil {
		fmt.Fprintf(w, "outbound_spool_depth %d\n", s.outQ.SpoolDepth())
		fmt.Fprintf(w, "outbound_deferred %d\n", s.outQ.Deferred())
		fmt.Fprintf(w, "outbound_journal_dropped %d\n", s.outQ.JournalDropped())
		var open, halfOpen int
		for _, d := range s.outQ.DomainStats() {
			switch d.Breaker.State {
			case resilience.Open:
				open++
			case resilience.HalfOpen:
				halfOpen++
			}
		}
		fmt.Fprintf(w, "outbound_breakers_open %d\n", open)
		fmt.Fprintf(w, "outbound_breakers_half_open %d\n", halfOpen)
	}
	if s.dnsCache != nil {
		st := s.dnsCache.Stats()
		fmt.Fprintf(w, "dns_cache_lookups %d\n", st.Lookups())
		fmt.Fprintf(w, "dns_cache_hits %d\n", st.Hits)
		fmt.Fprintf(w, "dns_cache_negative_hits %d\n", st.NegHits)
		fmt.Fprintf(w, "dns_cache_coalesced %d\n", st.Coalesced)
		fmt.Fprintf(w, "dns_cache_hit_rate %.4f\n", st.HitRate())
		fmt.Fprintf(w, "dns_cache_entries %d\n", s.dnsCache.Len())
	}
	if s.rblCache != nil {
		st := s.rblCache.Stats()
		fmt.Fprintf(w, "rbl_cache_lookups %d\n", st.Lookups())
		fmt.Fprintf(w, "rbl_cache_hits %d\n", st.Hits)
		fmt.Fprintf(w, "rbl_cache_negative_hits %d\n", st.NegHits)
		fmt.Fprintf(w, "rbl_cache_hit_rate %.4f\n", st.HitRate())
	}
	if s.syncFn != nil {
		ss := s.syncFn()
		fmt.Fprintf(w, "barrier_fired_total %d\n", ss.BarriersFired)
		fmt.Fprintf(w, "barrier_skipped_total %d\n", ss.BarriersSkipped)
		fmt.Fprintf(w, "steal_count_total %d\n", ss.Steals)
		fmt.Fprintf(w, "trap_hits_applied_total %d\n", ss.TrapHitsApplied)
	}
	if s.ctl != nil {
		om := s.ctl.Metrics()
		fmt.Fprintf(w, "overload_shed_total %d\n", om.ShedTotal())
		fmt.Fprintf(w, "admission_queue_depth %d\n", om.QueueDepth)
		fmt.Fprintf(w, "admission_limit %.2f\n", om.Limit)
		fmt.Fprintf(w, "admission_inflight %d\n", om.InFlight)
		fmt.Fprintf(w, "admission_admitted_total %d\n", om.Admitted())
		draining := 0
		if om.Draining {
			draining = 1
		}
		fmt.Fprintf(w, "admission_draining %d\n", draining)
	}
	if s.wal != nil {
		wm := s.wal.Metrics()
		fmt.Fprintf(w, "wal_appends_total %d\n", wm.Appends)
		fmt.Fprintf(w, "wal_fsyncs_total %d\n", wm.Fsyncs)
		fmt.Fprintf(w, "wal_bytes_total %d\n", wm.Bytes)
		fmt.Fprintf(w, "wal_replayed_records %d\n", wm.Replayed)
		fmt.Fprintf(w, "wal_compactions_total %d\n", wm.Compactions)
		fmt.Fprintf(w, "wal_dropped_appends %d\n", wm.DroppedAppends)
		fmt.Fprintf(w, "wal_fsync_errors %d\n", wm.FsyncErrors)
		fmt.Fprintf(w, "wal_last_lsn %d\n", wm.LastLSN)
		fmt.Fprintf(w, "wal_durable_lsn %d\n", wm.DurableLSN)
		fmt.Fprintf(w, "wal_segments %d\n", wm.Segments)
		fmt.Fprintf(w, "wal_pending_bytes %d\n", wm.PendingBytes)
	}
	if s.saver != nil {
		st := s.saver.Stats()
		fmt.Fprintf(w, "store_save_attempts %d\n", st.Attempts)
		fmt.Fprintf(w, "store_save_failed %d\n", st.Failed)
		fmt.Fprintf(w, "store_save_last_duration_seconds %.6f\n", st.LastDuration.Seconds())
		if !st.LastSuccess.IsZero() {
			fmt.Fprintf(w, "store_save_last_success_unix %d\n", st.LastSuccess.Unix())
		}
	}
	// Log-analysis counters: lifetime totals across every logscan run in
	// this process (replay tooling, experiments), so an operator can see
	// how much log the measurement pipeline has chewed through.
	ls := logscan.TotalStats()
	fmt.Fprintf(w, "logscan_events_total %d\n", ls.Events)
	fmt.Fprintf(w, "logscan_bad_lines_total %d\n", ls.BadLines)
	// Process-level contention counters: the cumulative time goroutines
	// have spent blocked on mutexes is the live-deployment check that the
	// engine's hot path stays contention-free (near-zero growth under
	// load is the healthy reading).
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		fmt.Fprintf(w, "mutex_wait_seconds %.6f\n", sample[0].Value.Float64())
	}
	fmt.Fprintf(w, "gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "goroutines %d\n", runtime.NumGoroutine())
}

var overloadTmpl = template.Must(template.New("overload").Parse(`<!DOCTYPE html>
<html><head><title>Overload control — {{.Company}}</title></head><body>
<h1>Admission control</h1>
<p>State: {{if .Draining}}<b>draining</b> (shutdown in progress; new mail gets 421){{else}}accepting{{end}}</p>
<table border="1" cellpadding="4">
<tr><th>limit (AIMD)</th><td>{{printf "%.2f" .M.Limit}}</td></tr>
<tr><th>in flight</th><td>{{.M.InFlight}}</td></tr>
<tr><th>queue depth</th><td>{{.M.QueueDepth}} (max {{.M.MaxQueueDepth}})</td></tr>
<tr><th>admitted</th><td>{{.Admitted}} ({{.M.AdmittedNow}} immediate, {{.M.AdmittedQueued}} queued)</td></tr>
<tr><th>shed total</th><td>{{.ShedTotal}}</td></tr>
<tr><th>latency observations</th><td>{{.M.Observations}} ({{.M.Decreases}} backoffs)</td></tr>
<tr><th>admission delay p50 / p99</th><td>{{.P50}} / {{.P99}}</td></tr>
</table>
<h2>Shed by reason</h2>
{{if .Sheds}}<table border="1" cellpadding="4">
<tr><th>reason</th><th>count</th></tr>
{{range .Sheds}}<tr><td>{{.Reason}}</td><td>{{.Count}}</td></tr>{{end}}
</table>{{else}}<p>none — no mail has been shed</p>{{end}}
<p>Shed mail is tempfailed (SMTP 451, or 421 while draining), never
dropped: compliant senders retry and deliver once the surge passes.</p>
</body></html>
`))

// handleOverload renders the admission controller's live state.
func (s *Server) handleOverload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.ctl == nil {
		http.Error(w, "no admission controller configured", http.StatusNotFound)
		return
	}
	m := s.ctl.Metrics()
	type shedRow struct {
		Reason string
		Count  int64
	}
	sheds := make([]shedRow, 0, len(m.Shed))
	for reason, n := range m.Shed {
		sheds = append(sheds, shedRow{string(reason), n})
	}
	sort.Slice(sheds, func(i, j int) bool { return sheds[i].Reason < sheds[j].Reason })
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = overloadTmpl.Execute(w, map[string]interface{}{
		"Company":   s.engine.Name(),
		"M":         m,
		"Draining":  m.Draining,
		"Admitted":  m.Admitted(),
		"ShedTotal": m.ShedTotal(),
		"Sheds":     sheds,
		"P50":       m.DelayQuantile(0.50).String(),
		"P99":       m.DelayQuantile(0.99).String(),
	})
}

var walTmpl = template.Must(template.New("wal").Parse(`<!DOCTYPE html>
<html><head><title>Write-ahead log — {{.Company}}</title></head><body>
<h1>Write-ahead log</h1>
<table border="1" cellpadding="4">
<tr><th>last LSN (appended)</th><td>{{.M.LastLSN}}</td></tr>
<tr><th>durable LSN (fsynced)</th><td>{{.M.DurableLSN}}</td></tr>
<tr><th>appends</th><td>{{.M.Appends}} ({{.M.DroppedAppends}} dropped by fault injection)</td></tr>
<tr><th>fsyncs</th><td>{{.M.Fsyncs}} ({{.M.FsyncErrors}} errors)</td></tr>
<tr><th>bytes written</th><td>{{.M.Bytes}}</td></tr>
<tr><th>pending bytes</th><td>{{.M.PendingBytes}}</td></tr>
<tr><th>replayed at boot</th><td>{{.M.Replayed}} record(s)</td></tr>
<tr><th>compactions</th><td>{{.M.Compactions}}</td></tr>
</table>
<h2>Segments ({{len .Segments}})</h2>
<table border="1" cellpadding="4">
<tr><th>file</th><th>first LSN</th><th>bytes</th><th></th></tr>
{{range .Segments}}<tr><td>{{.Name}}</td><td>{{.FirstLSN}}</td><td>{{.Bytes}}</td><td>{{if .Active}}active{{else}}sealed{{end}}</td></tr>
{{end}}</table>
<p>Group commit batches concurrent appends into one fsync; a record is
acknowledged durable only once its LSN is at or below the durable
watermark. Sealed segments wholly covered by the latest snapshot are
deleted at compaction.</p>
</body></html>
`))

// handleWAL renders the write-ahead log's watermarks and segment table.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.wal == nil {
		http.Error(w, "no write-ahead log configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = walTmpl.Execute(w, map[string]interface{}{
		"Company":  s.engine.Name(),
		"M":        s.wal.Metrics(),
		"Segments": s.wal.Segments(),
	})
}

var outboundTmpl = template.Must(template.New("outbound").Parse(`<!DOCTYPE html>
<html><head><title>Outbound challenges — {{.Company}}</title></head><body>
<h1>Outbound challenge delivery</h1>
<table border="1" cellpadding="4">
<tr><th>spool depth (pending)</th><td>{{.SpoolDepth}}</td></tr>
<tr><th>deferred (over queue bound)</th><td>{{.Deferred}}</td></tr>
<tr><th>journal appends dropped</th><td>{{.JournalDropped}}</td></tr>
<tr><th>loops suppressed</th><td>{{.LoopSuppressed}}</td></tr>
<tr><th>orphaned DSNs</th><td>{{.DSNOrphaned}}</td></tr>
</table>
<h2>Bounce classification (DSN feedback)</h2>
{{if .Bounces}}<table border="1" cellpadding="4">
<tr><th>class</th><th>count</th></tr>
{{range .Bounces}}<tr><td>{{.Class}}</td><td>{{.Count}}</td></tr>{{end}}
</table>{{else}}<p>none — no challenge bounces observed</p>{{end}}
<h2>Destination domains ({{len .Domains}})</h2>
{{if .Domains}}<table border="1" cellpadding="4">
<tr><th>domain</th><th>queued</th><th>breaker</th><th>trips</th><th>fail streak</th><th>sent</th><th>bounced</th><th>expired</th><th>next retry</th><th>last error</th></tr>
{{range .Domains}}<tr><td>{{.Domain}}</td><td>{{.Queued}}</td><td>{{.Breaker.State}}</td><td>{{.Breaker.Trips}}</td><td>{{.FailStreak}}</td><td>{{.Sent}}</td><td>{{.Bounced}}</td><td>{{.Expired}}</td><td>{{.RetryText}}</td><td>{{.LastError}}</td></tr>
{{end}}</table>{{else}}<p>none — no challenges have been enqueued</p>{{end}}
<p>Each destination domain has an independent circuit breaker and retry
ladder, so one dark domain cannot stall challenge delivery to healthy
ones. Bounce classes come from parsing RFC 3464 delivery status
notifications back into the originating gray message.</p>
</body></html>
`))

// handleOutbound renders the durable challenge spool and the per-domain
// delivery ledgers.
func (s *Server) handleOutbound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.outQ == nil {
		http.Error(w, "no outbound queue configured", http.StatusNotFound)
		return
	}
	m := s.engine.Metrics()
	type bounceRow struct {
		Class string
		Count int64
	}
	bounces := make([]bounceRow, 0, len(m.ChallengeBounced))
	for _, cls := range sortedStringKeys(m.ChallengeBounced) {
		bounces = append(bounces, bounceRow{cls, m.ChallengeBounced[cls]})
	}
	type domainRow struct {
		outbound.DomainStats
		RetryText string
	}
	stats := s.outQ.DomainStats()
	domains := make([]domainRow, 0, len(stats))
	for _, d := range stats {
		row := domainRow{DomainStats: d}
		if !d.RetryAt.IsZero() {
			row.RetryText = d.RetryAt.Format("2006-01-02 15:04:05")
		}
		domains = append(domains, row)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = outboundTmpl.Execute(w, map[string]interface{}{
		"Company":        s.engine.Name(),
		"SpoolDepth":     s.outQ.SpoolDepth(),
		"Deferred":       s.outQ.Deferred(),
		"JournalDropped": s.outQ.JournalDropped(),
		"LoopSuppressed": m.ChallengeLoopSuppressed,
		"DSNOrphaned":    m.DSNOrphaned,
		"Bounces":        bounces,
		"Domains":        domains,
	})
}

// sortedStringKeys returns m's keys in sorted order for stable output.
func sortedStringKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var reputationTmpl = template.Must(template.New("reputation").Parse(`<!DOCTYPE html>
<html><head><title>Sender reputation — {{.Company}}</title></head><body>
<h1>Sender reputation</h1>
{{range .Bands}}
<h2>{{.Title}} ({{len .Entries}})</h2>
{{if .Entries}}<table border="1" cellpadding="4">
<tr><th>sender</th><th>score</th><th>evidence mass</th></tr>
{{range .Entries}}<tr><td>{{.Key}}</td><td>{{printf "%.3f" .Score}}</td><td>{{printf "%.1f" .Mass}}</td></tr>
{{end}}</table>{{else}}<p>none</p>{{end}}
{{end}}
<h2>Store</h2>
<p>{{.Stats.Entries}} entries, {{.Stats.Records}} records, {{.Stats.Lookups}} lookups,
{{.Stats.DroppedWrites}} dropped writes, {{.Stats.FailedLookups}} failed lookups.</p>
<p>Shard occupancy: {{range .Stats.ShardOccupancy}}{{.}} {{end}}</p>
</body></html>
`))

// handleReputation renders the top-K senders per band plus the store's
// shard occupancy, the operator view of the reputation subsystem.
func (s *Server) handleReputation(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rep := s.engine.Reputation()
	if rep == nil {
		http.Error(w, "no reputation store configured", http.StatusNotFound)
		return
	}
	const topK = 20
	type bandView struct {
		Title   string
		Entries []reputation.EntrySummary
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = reputationTmpl.Execute(w, map[string]interface{}{
		"Company": s.engine.Name(),
		"Bands": []bandView{
			{"Trusted", rep.TopSenders(reputation.Trusted, topK)},
			{"Suspect", rep.TopSenders(reputation.Suspect, topK)},
			{"Neutral", rep.TopSenders(reputation.Neutral, topK)},
		},
		"Stats": rep.Stats(),
	})
}
