package main

// smtp-live: the product behind a real SMTP listener on loopback. Client
// connections replay one company's recorded mix, one transaction per
// connection, each from the 127.0.0.0/8 address its recorded client IP
// maps to: back to back for the end-to-end figures, and in the traced run
// also as an open loop at fixed rates. Challenges flush to a loopback
// sink MTA.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/smtp"
)

const (
	// liveLimitMs is the p99 latency limit a rate must meet to count
	// towards max_rate.
	liveLimitMs = 25.0
	// liveFlushEvery paces the outbound flusher (crserver: 30s).
	liveFlushEvery = 100 * time.Millisecond
	// liveTimeout bounds one transaction.
	liveTimeout = 5 * time.Second
)

// liveLadder is the open-loop ladder of the traced run, in transactions
// per second; every rung runs for the same time.
var liveLadder = []float64{1000, 3000, 4000, 4500, 5000, 5500, 6500}

// liveRec is one record prepared for sending.
type liveRec struct {
	src        net.IP
	from, rcpt mail.Address
	exp        expectation
	idx        int // index into the recording
}

// mapIP maps a recorded client IP a.b.c.d to 127.b.c.d.
func mapIP(ip string) net.IP {
	p := net.ParseIP(ip).To4()
	if p == nil {
		return net.IPv4(127, 0, 0, 1)
	}
	return net.IPv4(127, p[1], p[2], p[3])
}

// liveEnv is one set-up smtp-live environment.
type liveEnv struct {
	rec     *recording
	spans   *recorder // nil when untraced
	recs    []liveRec
	st      *stack
	srv     *smtp.Server
	addr    string
	sink    *smtp.Server
	sinkGot atomic.Int64
}

// sinkBackend is the loopback MTA challenges are delivered to.
type sinkBackend struct{ got *atomic.Int64 }

func (sinkBackend) ValidateSender(mail.Address) *smtp.Reply    { return nil }
func (sinkBackend) ValidateRcpt(_, _ mail.Address) *smtp.Reply { return nil }
func (b sinkBackend) Deliver(*mail.Message) *smtp.Reply        { b.got.Add(1); return nil }

// serve runs srv on a fresh loopback listener until srv is closed or
// shut down (Serve then returns net.ErrClosed, which is expected).
func serve(srv *smtp.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), nil
}

func setupLive(seed int64, dir string, rec *recorder) (*liveEnv, error) {
	r, err := record(companyConfig(seed), sizes.liveDays)
	if err != nil {
		return nil, err
	}
	r.raw = nil // decoded into r.recs; not needed while sending
	env := &liveEnv{rec: r, spans: rec}
	// The server sees each sender at its mapped loopback address, so the
	// mapped address inherits the recorded one's reverse DNS and listing.
	mapped := make(map[string]bool)
	for i, tr := range r.recs {
		lr := liveRec{src: mapIP(tr.ClientIP), exp: expect(tr.Class, r.cfg.OpenRelay), idx: i}
		lr.from, _ = mail.ParseAddress(tr.From)
		lr.rcpt, _ = mail.ParseAddress(tr.Rcpt)
		env.recs = append(env.recs, lr)
		m := lr.src.String()
		if mapped[m] || tr.ClientIP == "" {
			continue
		}
		mapped[m] = true
		if host, err := r.dns.LookupPTR(tr.ClientIP); err == nil {
			r.dns.AddPTR(m, host)
		}
		if r.filterBL.IsListed(tr.ClientIP) {
			r.filterBL.AddStatic(m)
		}
	}

	env.sink = smtp.NewServer(smtp.Config{Hostname: "sink.example"}, sinkBackend{&env.sinkGot})
	sinkAddr, err := serve(env.sink)
	if err != nil {
		return nil, err
	}
	snap, err := r.writeSnapshot(dir)
	if err != nil {
		return nil, err
	}
	env.st, err = newStack(r, stackConfig{
		clk:      clock.Real{},
		walDir:   dir + "/wal",
		snapPath: snap,
		dial:     func() (*smtp.Client, error) { return smtp.Dial(sinkAddr, liveTimeout) },
		rec:      rec,
	})
	if err != nil {
		env.sink.Close()
		return nil, err
	}
	env.srv = smtp.NewServer(smtp.Config{Hostname: "mta." + r.cfg.Domains[0]}, env.st.backend)
	if env.addr, err = serve(env.srv); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops both servers and the WAL.
func (env *liveEnv) close() {
	if env.srv != nil {
		env.srv.Close()
	}
	env.sink.Close()
	if env.st != nil {
		env.st.log.Close()
	}
}

// liveOutcome classifies one transaction.
type liveOutcome int

const (
	outcomeOK       liveOutcome = iota // the reply the record requires
	outcomeTempfail                    // an unexpected 4xx, timeout or connection error
	outcomeWrong                       // a reply of the wrong class: an output error
)

// txnCounts aggregates transaction outcomes across rungs.
type txnCounts struct {
	accepted, tempfail, wrong atomic.Int64
	mu                        sync.Mutex
	firstWrong                string
}

// send performs one transaction for record lr and returns when its final
// reply arrived.
func (env *liveEnv) send(lr liveRec, seq int64, rec *recorder, counts *txnCounts) (time.Time, error) {
	begin := time.Now()
	if rec != nil {
		rec.setSeq(lr.from.String(), seq)
	}
	stage, code, done, err := env.converse(lr, seq)
	if rec != nil {
		rec.add("txn", seq, true, begin, done)
	}
	out := classify(lr.exp, stage, code, err)
	switch out {
	case outcomeOK:
		if lr.exp == expectAccept {
			counts.accepted.Add(1)
		}
		return done, nil
	case outcomeTempfail:
		counts.tempfail.Add(1)
		return done, fmt.Errorf("tempfail at %s: %d %v", stage, code, err)
	default:
		counts.wrong.Add(1)
		counts.mu.Lock()
		if counts.firstWrong == "" {
			counts.firstWrong = fmt.Sprintf("record %d (%s): expectation %d, got %d at %s",
				lr.idx, env.rec.recs[lr.idx].Class, lr.exp, code, stage)
		}
		counts.mu.Unlock()
		return done, errors.New("wrong reply")
	}
}

// converse runs the SMTP dialogue up to the final reply and returns the
// stage that ended it, its reply code (0 on a transport error) and when
// it arrived.
func (env *liveEnv) converse(lr liveRec, seq int64) (stage string, code int, done time.Time, err error) {
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: lr.src}, Timeout: liveTimeout}
	conn, err := d.Dial("tcp", env.addr)
	if err != nil {
		return "connect", 0, time.Now(), err
	}
	if err := conn.SetDeadline(time.Now().Add(liveTimeout)); err != nil {
		conn.Close()
		return "connect", 0, time.Now(), err
	}
	c, err := smtp.NewClient(conn)
	if err != nil {
		return "greeting", replyCode(err), time.Now(), err
	}
	defer func() {
		done = time.Now()
		// Reset rather than QUIT: neither side then holds the connection
		// in TIME_WAIT, which over a run's ~10^5 connections would tax
		// the kernel during this run and the next.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}()
	if err := c.Hello("client.example"); err != nil {
		return "ehlo", replyCode(err), done, err
	}
	if err := c.Mail(lr.from); err != nil {
		return "mail", replyCode(err), done, err
	}
	if err := c.Rcpt(lr.rcpt); err != nil {
		return "rcpt", replyCode(err), done, err
	}
	if err := c.Data(messageBody(env.rec.recs[lr.idx], seq)); err != nil {
		return "data", replyCode(err), done, err
	}
	return "data", 250, done, nil
}

func replyCode(err error) int {
	var r *smtp.Reply
	if errors.As(err, &r) {
		return r.Code
	}
	return 0
}

// classify compares a transaction's end with the record's expectation.
func classify(exp expectation, stage string, code int, err error) liveOutcome {
	switch {
	case exp == expectAccept && stage == "data" && code == 250:
		return outcomeOK
	case exp == expectTempSender && stage == "mail" && code == 450:
		return outcomeOK
	case exp == expectRejectMail && stage == "mail" && code >= 500:
		return outcomeOK
	case exp == expectRejectRcpt && stage == "rcpt" && code >= 500:
		return outcomeOK
	case code == 0 || (code >= 400 && code < 500):
		return outcomeTempfail
	}
	return outcomeWrong
}

// runSMTPLive serves one world per set-up: each of the run's set-ups
// records another world of the seed, drives it for its share of the run
// and checks it, so a run averages over several worlds.
func runSMTPLive(opts options) (*measurement, error) {
	m := &measurement{e2e: metrics{}, layers: metrics{}}
	segment := time.Duration(opts.seconds / float64(sizes.setupRepeats) * float64(time.Second))
	var (
		lat     []float64
		heaps   []float64
		windows []float64 // per-window p99s of every segment
		msgs    int64
		wall    time.Duration
		rt      rtSample
		stacks  [][]string
		weights []int64
	)
	for k := 0; k < sizes.setupRepeats && m.checkErr == nil; k++ {
		dir, err := os.MkdirTemp(opts.workDir, "live-")
		if err != nil {
			return nil, err
		}
		var rec *recorder
		if opts.traced {
			rec = newRecorder()
			m.spans = rec
		}
		start := time.Now()
		env, err := setupLive(passSeed(opts.seed, k), dir, rec)
		if err != nil {
			return nil, err
		}
		m.setupTimes = append(m.setupTimes, time.Since(start))
		// The traced run's last segment also climbs the open-loop ladder.
		climb := rec != nil && k == sizes.setupRepeats-1
		seg, err := env.drive(segment, climb, opts.seconds)
		env.close()
		if err != nil {
			return nil, err
		}
		rt = rt.plus(seg.rt)
		stacks, weights = append(stacks, seg.stacks...), append(weights, seg.weights...)
		heaps = append(heaps, seg.heapMiB)
		lat = append(lat, seg.closed.latencies()...)
		windows = append(windows, seg.closed.windowP99s()...)
		msgs += seg.closed.sends()
		wall += seg.closedWall
		m.attempted += seg.sends
		m.failed += seg.failed
		m.checkErr = seg.checkErr
		if climb {
			seg.layers(m.layers)
		}
	}
	m.e2e.set("msgs_s", "msgs/s", float64(msgs)/wall.Seconds())
	m.e2e.set("p50_ms", "ms", median(lat))
	m.e2e.set("p99_ms", "ms", median(windows))
	m.e2e.set("heap_live_mib", "MiB", median(heaps))
	if opts.traced {
		runtimeLayer(m.layers, rt, m.attempted)
		cpuShareLayer(m.layers, attribute(stacks, weights))
	}
	return m, nil
}

// liveSegment is one set-up's share of a run.
type liveSegment struct {
	env           *liveEnv
	closed        rung
	closedWall    time.Duration
	ladder        []rung
	sends, failed int64
	heapMiB       float64
	rt            rtSample
	stacks        [][]string
	weights       []int64
	lag           durations
	checkErr      error
}

// drive runs the closed loop for d (and, when climb is set, the open
// ladder for ladderSeconds), then checks the outputs.
func (env *liveEnv) drive(d time.Duration, climb bool, ladderSeconds float64) (*liveSegment, error) {
	st, rec := env.st, env.spans
	seg := &liveSegment{env: env}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	every := func(period time.Duration, fn func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					fn()
				}
			}
		}()
	}
	every(liveFlushEvery, func() {
		start := time.Now()
		st.queue.Flush()
		if rec != nil {
			rec.add("outbound.flush", 0, false, start, time.Now())
		}
	})
	if rec != nil {
		every(time.Millisecond, func() { seg.lag = append(seg.lag, float64(st.log.LastLSN()-st.log.DurableLSN())) })
	}

	var prof *cpuProfile
	if rec != nil {
		var err error
		if prof, err = startProfile(); err != nil {
			close(stop)
			bg.Wait()
			return nil, err
		}
	}
	conns := runtime.NumCPU()
	var counts txnCounts
	var seq atomic.Int64
	send := func() (time.Time, error) {
		s := seq.Add(1)
		return env.send(env.recs[(s-1)%int64(len(env.recs))], s, rec, &counts)
	}
	before := readRuntime()
	start := time.Now()
	seg.closed = closedLoop(d, conns, send)
	seg.closedWall = time.Since(start)
	fmt.Fprintf(os.Stderr, "  closed loop, %d connections: %.0f txn/s, p50 %.3f ms, p99 %.3f ms\n",
		conns, seg.closed.rate, median(seg.closed.latencies()), seg.closed.p99())
	if climb {
		step := time.Duration(ladderSeconds / float64(len(liveLadder)) * float64(time.Second))
		for _, rate := range liveLadder {
			r := openLoop(rate, step, conns, func(int64) (time.Time, error) { return send() })
			seg.ladder = append(seg.ladder, r)
			fmt.Fprintf(os.Stderr, "  rung %5.0f/s: %6d sends, p50 %7.3f ms, p99 %8.3f ms, late p99 %7.3f ms, backlog max %d\n",
				rate, len(r.results), median(r.latencies()), r.p99(), quantile(r.lateMs(), 0.99), r.backlogMax())
		}
	}
	seg.rt = readRuntime().minus(before)
	if prof != nil {
		var err error
		if seg.stacks, seg.weights, err = prof.stopRaw(); err != nil {
			close(stop)
			bg.Wait()
			return nil, err
		}
	}
	seg.heapMiB = heapLiveMiB()
	close(stop)
	bg.Wait()
	seg.sends = seq.Load()
	seg.failed = counts.tempfail.Load() + counts.wrong.Load()
	seg.checkErr = env.check(&counts)
	return seg, nil
}

// check verifies a segment's outputs, outside the timed region: every
// session finished, every reply had the class its record requires,
// engine fates cover exactly the accepted DATA, and every challenge the
// queue reports delivered reached the sink.
func (env *liveEnv) check(counts *txnCounts) error {
	st := env.st
	ok := env.srv.Shutdown(liveTimeout)
	env.srv = nil
	if !ok {
		return errors.New("SMTP sessions still open after shutdown")
	}
	for i := 0; i < 100; i++ {
		if n, err := st.queue.FlushAll(); err != nil || n == 0 {
			break
		}
	}
	em := st.eng.Metrics()
	sent := st.queue.Stats()[outbound.StatusSent]
	switch {
	case counts.wrong.Load() > 0:
		return fmt.Errorf("%d replies of the wrong class; first: %s", counts.wrong.Load(), counts.firstWrong)
	case fates(em) != counts.accepted.Load():
		return fmt.Errorf("engine fates %d != accepted DATA %d", fates(em), counts.accepted.Load())
	case int64(sent) != env.sinkGot.Load():
		return fmt.Errorf("sink received %d challenges, outbound delivered %d", env.sinkGot.Load(), sent)
	}
	return nil
}

// layers reports the per-layer metrics of a traced segment.
func (seg *liveSegment) layers(l metrics) {
	env, rec := seg.env, seg.env.spans
	env.st.productLayers(l, rec, seg.sends)
	self := rec.selfTimes("txn", "gateway.")
	l.set("smtp.self_us_p50", "us", median(self))
	l.set("smtp.self_us_p99", "us", quantile(self, 0.99))
	l.set("smtp.sessions", "count", float64(seg.sends))
	l.set("wal.lag_records_p99", "records", quantile(seg.lag, 0.99))
	var late []float64
	var backlog int64
	for _, r := range seg.ladder {
		late = append(late, r.lateMs()...)
		backlog = max(backlog, r.backlogMax())
		l.set(fmt.Sprintf("smtp.p99_ms_at_%.0f", r.rate), "ms", r.p99())
	}
	l.set("smtp.max_rate_msgs_s", "msgs/s", maxRate(seg.ladder, liveLimitMs))
	l.set("loadgen.late_ms_p99", "ms", quantile(late, 0.99))
	l.set("loadgen.backlog_max", "count", float64(backlog))
	l.set("workload.record_s", "s", env.rec.recordDur.Seconds())
	l.set("trace.decode_s", "s", env.rec.decodeDur.Seconds())
}
