package main

// paper-repro: the researcher's reproduction path. workload.Fleet
// simulates the stock world, writing the decision log through
// maillog.Writer to a file, and logscan.ScanFile aggregates that file.
// A run repeats whole passes (build a fleet, simulate, scan) until its
// time is up, each pass on another world derived from the seed; building
// the fleet is set-up.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/workload"
)

const (
	paperVolume = 0.5 // ScaleVolume
)

// passResult is one simulate-and-scan pass.
type passResult struct {
	msgs, events, bytes int64
	simWall, scanWall   time.Duration
	days                []time.Duration
	scanCPU             time.Duration
	scanAllocs          uint64
	sinkTime            time.Duration // traced: time spent inside the log sink
	heapMiB             float64
	engine              core.Metrics // summed over the fleet's engines
	dnsHit, rblHit      float64
	dnsLookups          int64
	sync                workload.SyncStats
	stacks              [][]string // traced: CPU profile of the simulation
	weights             []int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// paperConfig is the stock fleet of the seed with each installation's
// profile pinned: users at the middle of its DefaultProfiles size class
// (every ninth company large, every third medium, the rest small) and
// the per-user draws at their range midpoints with the calibrated mix,
// so a seed varies the world and the message streams but not the
// amount or kind of work.
func paperConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig(seed, sizes.paperCompanies)
	cfg.Workers = runtime.NumCPU()
	cfg.ScaleVolume = paperVolume
	for i := range cfg.Profiles {
		p := &cfg.Profiles[i]
		switch {
		case i%9 == 8:
			p.Users = 1700
		case i%3 == 2:
			p.Users = 325
		default:
			p.Users = 85
		}
		p.DailyVolume = p.Users*20 + 250
		p.SeedWhitelist = 28
		p.OutboundPerUserDay = 0.6
		p.DigestDiligence = 0.5
		p.Mix = workload.DefaultMix()
	}
	return cfg
}

// paperPass builds a fleet (timed as set-up), simulates it day by day
// with the decision log going to path, scans the log and checks the
// scan against the engines' own counters.
func paperPass(seed int64, path string, traced, measureHeap bool, rec *recorder) (passResult, time.Duration, error) {
	var pr passResult
	f, err := os.Create(path)
	if err != nil {
		return pr, 0, err
	}
	defer f.Close()
	lw := maillog.NewWriter(f)
	cfg := paperConfig(seed)
	cfg.LogSink = lw.Write
	if traced {
		cfg.LogSink = func(e maillog.Event) {
			start := time.Now()
			lw.Write(e)
			pr.sinkTime += time.Since(start)
		}
	}
	setupStart := time.Now()
	mail.ResetIDCounter()
	fleet := workload.NewFleet(cfg)
	setup := time.Since(setupStart)

	var prof *cpuProfile
	if traced {
		if prof, err = startProfile(); err != nil {
			return pr, setup, err
		}
	}
	simStart := time.Now()
	for d := 0; d < sizes.paperDays; d++ {
		start := time.Now()
		fleet.Run(1)
		end := time.Now()
		pr.days = append(pr.days, end.Sub(start))
		if rec != nil {
			rec.add("workload.day", 0, false, start, end)
		}
	}
	pr.simWall = time.Since(simStart)
	if prof != nil {
		if pr.stacks, pr.weights, err = prof.stopRaw(); err != nil {
			return pr, setup, err
		}
	}
	if err := lw.Flush(); err != nil {
		return pr, setup, err
	}
	if err := f.Close(); err != nil {
		return pr, setup, err
	}
	pr.events = lw.Count()
	pr.sync = fleet.SyncStats()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs, cpu0 := ms.Mallocs, cpuTime()
	scanStart := time.Now()
	agg, err := logscan.ScanFile(path, logscan.Options{Workers: runtime.NumCPU()})
	pr.scanWall = time.Since(scanStart)
	pr.scanCPU = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	pr.scanAllocs = ms.Mallocs - allocs
	if rec != nil {
		rec.add("logscan.scan", 0, false, scanStart, scanStart.Add(pr.scanWall))
	}
	if err != nil {
		return pr, setup, fmt.Errorf("scan: %w", err)
	}
	if st, err := os.Stat(path); err == nil {
		pr.bytes = st.Size()
	}

	var want struct{ in, white, black, gray, challenges int64 }
	pr.engine = core.Metrics{MTADropped: map[core.MTAReason]int64{}, FilterDropped: map[string]int64{}}
	for _, c := range fleet.Companies {
		em := c.Engine.Metrics()
		sumEngine(&pr.engine, em)
		want.in += em.MTAIncoming
		want.white += em.SpoolWhite
		want.black += em.SpoolBlack
		want.gray += em.SpoolGray
		want.challenges += em.ChallengesSent
	}
	pr.msgs = want.in
	pr.dnsHit, pr.rblHit = fleet.DNSCache.Stats().HitRate(), fleet.RBLCache.Stats().HitRate()
	pr.dnsLookups = fleet.DNSCache.Stats().Lookups()
	if measureHeap {
		pr.heapMiB = heapLiveMiB() // the fleet is still reachable here
	}
	runtime.KeepAlive(fleet)
	tot := agg.Total()
	got := struct{ in, white, black, gray, challenges int64 }{
		tot.Incoming, tot.Spools["white"], tot.Spools["black"], tot.Spools["gray"], tot.Challenges,
	}
	if agg.BadLines != 0 || got != want {
		return pr, setup, fmt.Errorf("log scan disagrees with the engines: scan %+v (%d bad lines), engines %+v",
			got, agg.BadLines, want)
	}
	return pr, setup, nil
}

// passSeed derives the world seed of a run's k-th pass. Every pass
// simulates another world of the run's seed, so one run averages over
// many worlds instead of repeating one.
func passSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// sumEngine adds the counters coreShares reads.
func sumEngine(dst *core.Metrics, em core.Metrics) {
	dst.MTAIncoming += em.MTAIncoming
	dst.SpoolWhite += em.SpoolWhite
	dst.SpoolBlack += em.SpoolBlack
	dst.SpoolGray += em.SpoolGray
	dst.ChallengesSent += em.ChallengesSent
	for k, v := range em.MTADropped {
		dst.MTADropped[k] += v
	}
	for k, v := range em.FilterDropped {
		dst.FilterDropped[k] += v
	}
}

func runPaperRepro(opts options) (*measurement, error) {
	m := &measurement{e2e: metrics{}, layers: metrics{}}
	var rec *recorder
	if opts.traced {
		rec = newRecorder()
		m.spans = rec
	}
	path := filepath.Join(opts.workDir, "decisions.log")
	var passes []passResult
	before := readRuntime()
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for len(passes) < 2 || time.Now().Before(deadline) {
		pr, setup, err := paperPass(passSeed(opts.seed, len(passes)), path, opts.traced, len(passes) == 0, rec)
		m.attempted++
		if err != nil {
			m.failed++
			m.checkErr = err
			break
		}
		m.setupTimes = append(m.setupTimes, setup)
		passes = append(passes, pr)
	}
	after := readRuntime()
	if len(passes) == 0 {
		return m, nil
	}

	var msgs, events, bytes int64
	var sim, scan, scanCPU, sink time.Duration
	var scanAllocs uint64
	var days []float64
	var stacks [][]string
	var weights []int64
	for _, pr := range passes {
		msgs += pr.msgs
		events += pr.events
		bytes += pr.bytes
		sim += pr.simWall
		scan += pr.scanWall
		scanCPU += pr.scanCPU
		scanAllocs += pr.scanAllocs
		sink += pr.sinkTime
		for _, d := range pr.days {
			days = append(days, float64(d)/1e6)
		}
		stacks = append(stacks, pr.stacks...)
		weights = append(weights, pr.weights...)
	}
	m.e2e.set("msgs_s", "msgs/s", float64(msgs)/(sim+scan).Seconds())
	m.e2e.set("p50_ms", "ms", median(days))
	m.e2e.set("p99_ms", "ms", quantile(days, 0.99))
	m.e2e.set("heap_live_mib", "MiB", passes[0].heapMiB)

	if opts.traced {
		last := passes[len(passes)-1]
		l := m.layers
		l.set("workload.sim_msgs_s", "msgs/s", float64(msgs)/sim.Seconds())
		l.set("workload.barriers_fired", "count", float64(last.sync.BarriersFired))
		l.set("workload.barriers_skipped", "count", float64(last.sync.BarriersSkipped))
		l.set("workload.steals", "count", float64(last.sync.Steals))
		l.set("maillog.events_per_msg", "events/msg", ratio(float64(events), float64(msgs)))
		l.set("maillog.bytes_per_event", "B/event", ratio(float64(bytes), float64(events)))
		l.set("maillog.sink_ms_total", "ms", float64(sink)/1e6/float64(len(passes)))
		l.set("logscan.events_s", "events/s", float64(events)/scan.Seconds())
		l.set("logscan.allocs_per_event", "allocs/event", ratio(float64(scanAllocs), float64(events)))
		l.set("logscan.mib_per_s", "MiB/s", float64(bytes)/(1<<20)/scan.Seconds())
		l.set("logscan.cpu_per_wall", "ratio", scanCPU.Seconds()/scan.Seconds())
		coreShares(l, last.engine, last.msgs)
		l.set("dnscache.hit_ratio", "ratio", last.dnsHit)
		l.set("dnscache.lookups_per_msg", "lookups/msg", ratio(float64(last.dnsLookups), float64(last.msgs)))
		l.set("rblcache.hit_ratio", "ratio", last.rblHit)
		runtimeLayer(l, after.minus(before), msgs)
		shares := attribute(stacks, weights)
		cpuShareLayer(l, shares)
		fmt.Fprintf(os.Stderr, "  simulation CPU: product %.1f%%, harness %.1f%%, benchmark %.1f%%, runtime %.1f%%\n",
			100*shares["product"], 100*shares["harness"], 100*shares["perfbench"], 100*shares["runtime"])
	}
	return m, nil
}
