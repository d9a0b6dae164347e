package main

// The recorded world: a one-company fleet generated from the seed, its
// traffic frozen to a trace through the public workload and trace APIs,
// and the installation state (configuration, users, seeded whitelist,
// banned senders) the product stack boots with. All of it is built
// outside the timed region.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// companyUsers fixes the company shape of the two product workloads; with
// the paper-calibrated mix un-jittered, a seed varies only the world and
// the message stream.
const companyUsers = 150

// sizes are the workloads' input sizes; the tests shrink them.
var sizes = struct {
	companyVolume             int // messages per simulated day of the one-company workloads
	liveDays                  int // days recorded for smtp-live; sends cycle through them
	surgeDays                 int // days recorded for replay-surge
	paperCompanies, paperDays int
	setupRepeats              int // set-ups per run; setup_s is their median
}{companyVolume: 12000, liveDays: 2, surgeDays: 2, paperCompanies: 12, paperDays: 7, setupRepeats: 3}

// recording is one frozen company workload.
type recording struct {
	dns      *dnssim.Server // the recorded world's DNS zones
	filterBL *rbl.Provider  // the blocklist the product's RBL filter consults
	cfg      core.Config    // the recorded installation's engine configuration
	users    []mail.Address
	banned   []mail.Address // administratively rejected senders
	snapshot []byte         // store snapshot with the seeded whitelist
	raw      []byte         // the JSONL trace
	recs     []trace.Record

	recordDur, decodeDur time.Duration
}

// companyConfig is the one-company world configuration of the seed.
func companyConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig(seed, 1)
	cfg.Profiles[0].Users = companyUsers
	cfg.Profiles[0].DailyVolume = sizes.companyVolume
	cfg.Profiles[0].Mix = workload.DefaultMix()
	return cfg
}

// surgeConfig is companyConfig with a filter-clean botnet (every bot has
// reverse DNS and none is listed) and a day-spanning 6x spam surge, so most
// messages pass every MTA-IN check and filter and land in the gray spool.
func surgeConfig(seed int64) workload.Config {
	cfg := companyConfig(seed)
	cfg.BotnetNoPTR = 0
	cfg.BotnetListed = 0
	cfg.SurgeBursts = []workload.SurgeBurst{{Day: 0, Hour: 12, Hours: 24, Intensity: 6}}
	return cfg
}

// record simulates days of cfg's world with the trace sink attached and
// decodes the trace back into records.
func record(cfg workload.Config, days int) (*recording, error) {
	start := time.Now()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Name: "perfbench", Seed: cfg.Seed, Created: workload.FleetStart})
	if err != nil {
		return nil, err
	}
	cfg.TraceSink = tw.Write
	cfg.Workers = 1
	mail.ResetIDCounter()
	f := workload.NewFleet(cfg)
	comp := f.Companies[0]
	var snap bytes.Buffer
	if err := store.Save(&snap, "perfbench", store.Stores{Whitelist: comp.Engine.Whitelists()}, 0, workload.FleetStart); err != nil {
		return nil, err
	}
	f.Run(days)
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	rec := &recording{
		dns:       f.DNS,
		cfg:       comp.Engine.Config(),
		users:     f.Users(comp.Name),
		snapshot:  snap.Bytes(),
		raw:       buf.Bytes(),
		recordDur: time.Since(start),
	}
	for _, p := range f.Providers {
		if p.Name() == "spamhaus" {
			rec.filterBL = p
		}
	}
	if rec.filterBL == nil {
		return nil, fmt.Errorf("world has no spamhaus blocklist")
	}

	start = time.Now()
	r, err := trace.NewReader(bytes.NewReader(rec.raw))
	if err != nil {
		return nil, err
	}
	if rec.recs, err = r.ReadAll(); err != nil {
		return nil, err
	}
	rec.decodeDur = time.Since(start)
	if len(rec.recs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	seen := make(map[mail.Address]bool)
	for _, tr := range rec.recs {
		if tr.Class != workload.ClassRejectedSender.String() {
			continue
		}
		if a, err := mail.ParseAddress(tr.From); err == nil && !seen[a] {
			seen[a] = true
			rec.banned = append(rec.banned, a)
		}
	}
	return rec, nil
}

// writeSnapshot stores the seeded state where the stack boots from it.
func (rec *recording) writeSnapshot(dir string) (string, error) {
	path := filepath.Join(dir, "state.json")
	return path, os.WriteFile(path, rec.snapshot, 0o644)
}

// expectation is the reply a record must get from the MTA-IN.
type expectation int

const (
	expectAccept     expectation = iota // 250 after DATA
	expectTempSender                    // 450 at MAIL FROM: unresolvable sender domain
	expectRejectMail                    // 5xx at MAIL FROM: banned sender
	expectRejectRcpt                    // 5xx at RCPT TO: relay, unknown user, malformed
)

// expect derives a record's required outcome from its ground-truth class
// and the installation's relay policy.
func expect(class string, openRelay bool) expectation {
	switch class {
	case workload.ClassUnresolvable.String():
		return expectTempSender
	case workload.ClassRejectedSender.String():
		return expectRejectMail
	case workload.ClassRelayAttempt.String():
		if openRelay {
			return expectAccept
		}
		return expectRejectRcpt
	case workload.ClassUnknownRecipient.String(), workload.ClassMalformed.String():
		return expectRejectRcpt
	}
	return expectAccept
}

// messageBody renders a record as the DATA payload: headers carrying the
// subject and the benchmark's sequence number, then padding up to the
// recorded size.
func messageBody(tr trace.Record, seq int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Subject: %s\r\nFrom: %s\r\n%s%d\r\n\r\n", tr.Subject, tr.From, seqHeader, seq)
	const line = "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor.\r\n"
	for b.Len()+len(line) <= tr.Size {
		b.WriteString(line)
	}
	return b.String()
}
