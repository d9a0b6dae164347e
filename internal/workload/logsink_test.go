package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/trace"
)

// TestFleetLogCrossValidation runs a fleet with the decision log
// attached and verifies the log-derived statistics equal the engines'
// in-process counters — the methodology equivalence the paper's
// log-crawling measurement pipeline rests on, at fleet scale.
func TestFleetLogCrossValidation(t *testing.T) {
	mail.ResetIDCounter()
	var sb strings.Builder
	w := maillog.NewWriter(&sb)

	cfg := smallConfig(29)
	cfg.LogSink = w.Write
	f := NewFleet(cfg)
	f.Run(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	agg, err := logscan.Scan(strings.NewReader(sb.String()), logscan.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if agg.BadLines != 0 {
		t.Fatalf("unparsable lines = %d", agg.BadLines)
	}

	// Four workers must reconstruct the identical aggregate: the worker
	// count never changes the measurement.
	scanned, err := logscan.Scan(strings.NewReader(sb.String()), logscan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scanned, agg) {
		t.Fatal("workers=4 logscan aggregate differs from workers=1")
	}

	// Fleet-wide totals.
	var incoming, white, gray, challenges, filterDrops int64
	for _, c := range f.Companies {
		m := c.Engine.Metrics()
		incoming += m.MTAIncoming
		white += m.SpoolWhite
		gray += m.SpoolGray
		challenges += m.ChallengesSent
		filterDrops += m.TotalFilterDropped()
	}
	tot := agg.Total()
	if tot.Incoming != incoming {
		t.Errorf("incoming: log %d vs engines %d", tot.Incoming, incoming)
	}
	if tot.Spools["white"] != white || tot.Spools["gray"] != gray {
		t.Errorf("spools: log %+v vs engines white=%d gray=%d", tot.Spools, white, gray)
	}
	if tot.Challenges != challenges {
		t.Errorf("challenges: log %d vs engines %d", tot.Challenges, challenges)
	}
	var logFilterDrops int64
	for _, v := range tot.FilterDrops {
		logFilterDrops += v
	}
	if logFilterDrops != filterDrops {
		t.Errorf("filter drops: log %d vs engines %d", logFilterDrops, filterDrops)
	}

	// Per-company coverage: every company appears in the log.
	if got := len(agg.Companies()); got != len(f.Companies) {
		t.Errorf("log companies = %d, want %d", got, len(f.Companies))
	}
	// And each company's incoming matches its engine.
	for _, c := range f.Companies {
		la := agg.ByCompany[c.Name]
		if la == nil {
			t.Fatalf("company %s missing from log", c.Name)
		}
		if la.Incoming != c.Engine.Metrics().MTAIncoming {
			t.Errorf("%s incoming: log %d vs engine %d",
				c.Name, la.Incoming, c.Engine.Metrics().MTAIncoming)
		}
	}

	// Web events: solves recorded in the log equal the network's solved
	// count.
	if int(tot.WebSolves) != f.Net.DeliveryStats().Solved {
		t.Errorf("web solves: log %d vs network %d", tot.WebSolves, f.Net.DeliveryStats().Solved)
	}
}

// TestSinkDrainOrderAndCompletion pins the sink contract of Run: the
// drain calls the sinks in canonical order (the same sequences for any
// worker count) and never concurrently — the sinks below append to
// plain slices with no lock, which -race would flag — and every call
// has completed when Run returns, so the events collected so far
// already add up to the engines' counters. A second Run appends after
// the first one's events.
func TestSinkDrainOrderAndCompletion(t *testing.T) {
	type collected struct {
		events  []maillog.Event
		records []trace.Record
	}
	run := func(workers int) (*Fleet, *collected) {
		mail.ResetIDCounter()
		c := &collected{}
		cfg := smallConfig(31)
		cfg.Workers = workers
		cfg.LogSink = func(ev maillog.Event) { c.events = append(c.events, ev) }
		cfg.TraceSink = func(r trace.Record) { c.records = append(c.records, r) }
		f := NewFleet(cfg)
		f.Run(1)
		return f, c
	}
	// matchesEngines scans the events through logscan and compares the
	// totals with the summed engine counters.
	matchesEngines := func(f *Fleet, events []maillog.Event) {
		t.Helper()
		var buf bytes.Buffer
		w := maillog.NewWriter(&buf)
		for _, ev := range events {
			w.Write(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		agg, err := logscan.Scan(&buf, logscan.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var incoming, white, gray, challenges int64
		for _, c := range f.Companies {
			m := c.Engine.Metrics()
			incoming += m.MTAIncoming
			white += m.SpoolWhite
			gray += m.SpoolGray
			challenges += m.ChallengesSent
		}
		tot := agg.Total()
		if tot.Incoming != incoming || tot.Spools["white"] != white ||
			tot.Spools["gray"] != gray || tot.Challenges != challenges {
			t.Fatalf("log totals incoming=%d spools=%v challenges=%d, engines incoming=%d white=%d gray=%d challenges=%d",
				tot.Incoming, tot.Spools, tot.Challenges, incoming, white, gray, challenges)
		}
	}

	f1, c1 := run(1)
	f4, c4 := run(4)
	if len(c1.events) == 0 || len(c1.records) == 0 {
		t.Fatalf("sinks got %d events, %d records", len(c1.events), len(c1.records))
	}
	if !reflect.DeepEqual(c1, c4) {
		t.Fatal("sink sequences differ between Workers 1 and 4")
	}
	matchesEngines(f1, c1.events)
	matchesEngines(f4, c4.events)

	first := append([]maillog.Event(nil), c4.events...)
	f4.Run(1)
	if !reflect.DeepEqual(c4.events[:len(first)], first) {
		t.Fatal("second Run rewrote the first run's events")
	}
	dayTwo := f4.Start.Add(24 * time.Hour)
	for _, ev := range c4.events[len(first):] {
		if ev.Time.Before(dayTwo) {
			t.Fatalf("second Run appended an event at %v, before day two", ev.Time)
		}
	}
	matchesEngines(f4, c4.events)
}
