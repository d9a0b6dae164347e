package main

// replay-surge: one caller replays a pre-decoded trace through the
// gateway's smtp.Backend methods (ValidateSender -> ValidateRcpt ->
// Deliver) in process, on a simulated clock that follows each record's
// timestamp. Challenges flush through the outbound queue to an
// in-process sink MTA over net.Pipe. No sockets and no generator run in
// the timed region.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/smtp"
	"repro/internal/workload"
)

const (
	// replayFlushEvery and replaySweepEvery are crserver's outbound flush
	// and quarantine sweep periods, here in simulated time.
	replayFlushEvery = 30 * time.Second
	replaySweepEvery = time.Hour
	// passOffset shifts each further pass of the trace in simulated
	// time. It exceeds the quarantine TTL plus the trace's span, so the
	// hourly sweep expires one pass's quarantine before the next pass
	// and the heap holds at most about one pass of state.
	passOffset = 33 * 24 * time.Hour
)

// replayMsg is one record decoded for replay.
type replayMsg struct {
	at         time.Time
	id         string
	from, rcpt mail.Address
	subject    string
	size       int
	clientIP   string
}

// replayEnv is one set-up replay-surge environment.
type replayEnv struct {
	rec     *recording
	msgs    []replayMsg
	snap    string
	sink    *smtp.Server
	sinkGot atomic.Int64
}

func setupReplay(seed int64, dir string) (*replayEnv, error) {
	r, err := record(surgeConfig(seed), sizes.surgeDays)
	if err != nil {
		return nil, err
	}
	env := &replayEnv{rec: r, msgs: make([]replayMsg, len(r.recs))}
	for i, tr := range r.recs {
		m := replayMsg{at: tr.At, id: tr.MsgID, subject: tr.Subject, size: tr.Size, clientIP: tr.ClientIP}
		m.from, _ = mail.ParseAddress(tr.From)
		m.rcpt, _ = mail.ParseAddress(tr.Rcpt)
		env.msgs[i] = m
	}
	r.raw, r.recs = nil, nil // decoded into env.msgs; not needed while replaying
	if env.snap, err = r.writeSnapshot(dir); err != nil {
		return nil, err
	}
	env.sink = smtp.NewServer(smtp.Config{Hostname: "sink.example"}, sinkBackend{&env.sinkGot})
	return env, nil
}

// newReplayStack builds a product stack on a fresh simulated clock whose
// challenges reach the in-process sink over net.Pipe.
func (env *replayEnv) newReplayStack(walDir string, rec *recorder) (*stack, *clock.Sim, error) {
	clk := clock.NewSim(workload.FleetStart)
	dial := func() (*smtp.Client, error) {
		c, s := net.Pipe()
		go env.sink.ServeConn(s)
		return smtp.NewClient(c)
	}
	st, err := newStack(env.rec, stackConfig{clk: clk, walDir: walDir, snapPath: env.snap, dial: dial, rec: rec})
	return st, clk, err
}

// replayer drives one stack through the trace.
type replayer struct {
	env       *replayEnv
	st        *stack
	clk       *clock.Sim
	rec       *recorder
	next      int64 // sequence number of the next message, from 1
	nextFlush time.Time
	nextSweep time.Time
	delivered int64
	lat       durations
}

// step replays the next message (passes wrap the trace with timestamps
// shifted by passOffset and IDs suffixed by the pass). Flushes and
// sweeps run when simulated time reaches them; ticks missed across a
// pass jump are dropped, as a ticker drops them.
func (rp *replayer) step() error {
	seq := rp.next
	rp.next++
	i := int((seq - 1) % int64(len(rp.env.msgs)))
	pass := (seq - 1) / int64(len(rp.env.msgs))
	m := &rp.env.msgs[i]
	at := m.at.Add(time.Duration(pass) * passOffset)
	if at.After(rp.clk.Now()) {
		rp.clk.Set(at)
	}
	now := rp.clk.Now()
	if !now.Before(rp.nextFlush) {
		start := time.Now()
		rp.st.queue.Flush()
		if rp.rec != nil {
			rp.rec.add("outbound.flush", 0, false, start, time.Now())
		}
		rp.nextFlush = now.Add(replayFlushEvery)
	}
	if !now.Before(rp.nextSweep) {
		rp.st.eng.ExpireQuarantine()
		rp.nextSweep = now.Add(replaySweepEvery)
	}
	id := m.id
	if pass > 0 {
		id += ".p" + strconv.FormatInt(pass, 10)
	}
	if rp.rec != nil {
		rp.rec.setSeq(m.from.String(), seq)
		rp.rec.setSeq(id, seq)
	}
	start := time.Now()
	b := rp.st.backend
	if b.ValidateSender(m.from) == nil && b.ValidateRcpt(m.from, m.rcpt) == nil {
		msg := &mail.Message{
			ID: id, EnvelopeFrom: m.from, HeaderFrom: m.from, Rcpt: m.rcpt,
			Subject: m.subject, Size: m.size, ClientIP: m.clientIP, Received: rp.clk.Now(),
		}
		if r := b.Deliver(msg); r == nil {
			rp.delivered++
		} else if r.Temporary() {
			return fmt.Errorf("message %s tempfailed: %v", id, r)
		}
	}
	end := time.Now()
	rp.lat.add(end.Sub(start))
	if rp.rec != nil {
		rp.rec.add("replay", seq, true, start, end)
	}
	return nil
}

// fateCounts is the engine's decision summary compared across runs.
func fateCounts(m core.Metrics) string {
	return fmt.Sprintf("in=%d mta=%v white=%d black=%d gray=%d filter=%v challenges=%d quarantine-only=%d suppressed=%d fast=%d suspect=%d",
		m.MTAIncoming, m.MTADropped, m.SpoolWhite, m.SpoolBlack, m.SpoolGray, m.FilterDropped,
		m.ChallengesSent, m.QuarantineOnly, m.ChallengeSuppressed, m.ReputationFastPath, m.ReputationSuspect)
}

// runReplaySurge replays one world per set-up: each of the run's
// set-ups records another world of the seed, replays it for its share of
// the run and checks it, so a run averages over several worlds.
func runReplaySurge(opts options) (*measurement, error) {
	m := &measurement{e2e: metrics{}, layers: metrics{}}
	segment := time.Duration(opts.seconds / float64(sizes.setupRepeats) * float64(time.Second))
	var (
		lat, heaps durations
		msgs       int64
		wall       time.Duration
		rt         rtSample
		stacks     [][]string
		weights    []int64
	)
	for k := 0; k < sizes.setupRepeats && m.checkErr == nil; k++ {
		dir, err := os.MkdirTemp(opts.workDir, "replay-")
		if err != nil {
			return nil, err
		}
		var rec *recorder
		if opts.traced {
			rec = newRecorder()
			m.spans = rec
		}
		start := time.Now()
		env, err := setupReplay(passSeed(opts.seed, k), dir)
		if err != nil {
			return nil, err
		}
		st, clk, err := env.newReplayStack(dir+"/wal", rec)
		if err != nil {
			return nil, err
		}
		m.setupTimes = append(m.setupTimes, time.Since(start))
		rp := &replayer{env: env, st: st, clk: clk, rec: rec, next: 1, nextFlush: clk.Now(), nextSweep: clk.Now()}

		var prof *cpuProfile
		if opts.traced {
			if prof, err = startProfile(); err != nil {
				return nil, err
			}
		}
		before := readRuntime()
		firstPass, segWall, lag, err := rp.run(segment)
		if err != nil {
			return nil, err
		}
		rt = rt.plus(readRuntime().minus(before))
		if prof != nil {
			s, w, err := prof.stopRaw()
			if err != nil {
				return nil, err
			}
			stacks, weights = append(stacks, s...), append(weights, w...)
		}
		heaps = append(heaps, heapLiveMiB())
		n := rp.next - 1
		lat = append(lat, rp.lat...)
		msgs += n
		wall += segWall

		if rec != nil && k == sizes.setupRepeats-1 {
			st.productLayers(m.layers, rec, n)
			// The engine runs on the simulated clock, so its service
			// observer sees zero; with one caller the Deliver span is the
			// engine's Receive plus an uncontended admission.
			deliver := rec.byName()["gateway.deliver"]
			m.layers.set("core.service_us_p50", "us", median(deliver))
			m.layers.set("core.service_us_p99", "us", quantile(deliver, 0.99))
			m.layers.set("wal.lag_records_p99", "records", quantile(lag, 0.99))
			m.layers.set("workload.record_s", "s", env.rec.recordDur.Seconds())
			m.layers.set("trace.decode_s", "s", env.rec.decodeDur.Seconds())
		}

		// Output checks, outside the timed region.
		m.checkErr = rp.check(firstPass)
		if m.checkErr == nil {
			m.checkErr = env.replayOnce(opts.workDir, firstPass)
		}
		st.log.Close()
	}
	m.e2e.set("heap_live_mib", "MiB", median(heaps))
	m.e2e.set("msgs_s", "msgs/s", float64(msgs)/wall.Seconds())
	m.e2e.set("p50_ms", "ms", median(lat)/1e3)
	m.e2e.set("p99_ms", "ms", quantile(lat, 0.99)/1e3)
	m.attempted = msgs
	if opts.traced {
		runtimeLayer(m.layers, rt, msgs)
		cpuShareLayer(m.layers, attribute(stacks, weights))
	}
	return m, nil
}

// run replays for at least d and at least one whole pass of the trace,
// returning the fate counts after the first pass, the wall time and the
// sampled WAL lag (traced runs only).
func (rp *replayer) run(d time.Duration) (firstPass string, wall time.Duration, lag durations, err error) {
	n := int64(len(rp.env.msgs))
	start := time.Now()
	deadline := start.Add(d)
	for rp.next <= n || time.Now().Before(deadline) {
		for k := 0; k < 256; k++ {
			if err := rp.step(); err != nil {
				return "", 0, nil, err
			}
			if rp.next == n+1 {
				firstPass = fateCounts(rp.st.eng.Metrics())
			}
		}
		if rp.rec != nil {
			lag = append(lag, float64(rp.st.log.LastLSN()-rp.st.log.DurableLSN()))
		}
	}
	return firstPass, time.Since(start), lag, nil
}

// check verifies the timed replay: every accepted message reached one
// engine fate, every delivered challenge reached the sink, and the WAL
// recovers the live stores byte for byte.
func (rp *replayer) check(firstPass string) error {
	st := rp.st
	if got := fates(st.eng.Metrics()); got != rp.delivered {
		return fmt.Errorf("engine fates %d != accepted messages %d", got, rp.delivered)
	}
	for i := 0; i < 100; i++ {
		if n, err := st.queue.FlushAll(); err != nil || n == 0 {
			break
		}
	}
	if sent := st.queue.Stats()[outbound.StatusSent]; int64(sent) != rp.env.sinkGot.Load() {
		return fmt.Errorf("sink received %d challenges, outbound delivered %d", rp.env.sinkGot.Load(), sent)
	}
	if firstPass == "" {
		return errors.New("the timed replay did not complete one pass of the trace")
	}
	return st.verifyRecovery()
}

// replayOnce replays one pass of the trace through a fresh stack and
// compares its fate counts with the timed run's first pass: a seed's
// decisions must not depend on timing.
func (env *replayEnv) replayOnce(workDir, want string) error {
	dir, err := os.MkdirTemp(workDir, "replay-check-")
	if err != nil {
		return err
	}
	st, clk, err := env.newReplayStack(dir+"/wal", nil)
	if err != nil {
		return err
	}
	defer st.log.Close()
	rp := &replayer{env: env, st: st, clk: clk, next: 1, nextFlush: clk.Now(), nextSweep: clk.Now()}
	for rp.next <= int64(len(env.msgs)) {
		if err := rp.step(); err != nil {
			return err
		}
	}
	if got := fateCounts(st.eng.Metrics()); got != want {
		return fmt.Errorf("fate counts differ between two replays of one seed:\n  %s\n  %s", want, got)
	}
	return nil
}
