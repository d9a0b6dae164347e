package main

// Span recording for the traced run. Spans are taken only here, around
// calls through the product's public seams (smtp.Backend, filters.Prober,
// dnssim.Resolver, filters.RBLBackend, core.ChallengeSender, the outbound
// dialer); nothing inside the product is instrumented. Spans stay in
// memory and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dnscache"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/smtp"
)

// span is one timed call. Msg is the benchmark's sequence number of the
// message the call served (0 when the seam carries no message); the
// message's root span, the client transaction, has ID == Msg, and every
// other span of the message names it as Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Msg    int64  `json:"msg,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// childIDBase keeps non-root span IDs clear of message sequence numbers.
const childIDBase = 1 << 40

// recorder accumulates spans in memory.
type recorder struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
	// msgSeq maps a product message ID (or an envelope sender, for the
	// calls made before the message exists) to the benchmark sequence
	// number, so seams that see only the product's view can name the
	// message they serve.
	msgSeq sync.Map
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.nextID.Store(childIDBase)
	return r
}

// maxSpans bounds the spans kept in memory (64 B each); later spans are
// counted as dropped, so per-layer figures describe the start of the
// traced run.
const maxSpans = 1 << 20

// add records a span. A root span (the client transaction or the
// replayed message) takes the message's sequence number as its ID.
func (r *recorder) add(name string, msg int64, root bool, start, end time.Time) {
	s := span{Msg: msg, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	if root {
		s.ID = msg
	} else {
		s.ID = r.nextID.Add(1)
		s.Parent = msg
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// counts returns how many spans were kept and dropped.
func (r *recorder) counts() (kept int, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), r.dropped
}

// byName returns the span durations, in microseconds, grouped by name.
func (r *recorder) byName() map[string]durations {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]durations)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// selfTimes returns, for every root span named root, its duration minus
// the durations of its children whose names start with childPrefix, in
// microseconds: the time the root's own layer spent outside them.
func (r *recorder) selfTimes(root, childPrefix string) durations {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, childPrefix) {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out durations
	for _, s := range r.spans {
		if s.Name == root {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e3)
		}
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setSeq and seqOf maintain the product-key -> sequence mapping.
func (r *recorder) setSeq(key string, seq int64) { r.msgSeq.Store(key, seq) }

func (r *recorder) seqOf(key string) int64 {
	if v, ok := r.msgSeq.Load(key); ok {
		return v.(int64)
	}
	return 0
}

// seqHeader is the header the benchmark's client adds to every message
// body so the Deliver wrapper can tie the product's message to the
// client's transaction.
const seqHeader = "X-Bench-Seq: "

// seqFromBody parses the sequence header out of a message body.
func seqFromBody(body string) int64 {
	i := strings.Index(body, seqHeader)
	if i < 0 {
		return 0
	}
	v := body[i+len(seqHeader):]
	if j := strings.IndexByte(v, '\r'); j >= 0 {
		v = v[:j]
	}
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

// tracedBackend wraps the gateway's smtp.Backend.
type tracedBackend struct {
	inner              smtp.Backend
	rec                *recorder
	reply4xx, reply5xx atomic.Int64
}

func (b *tracedBackend) count(r *smtp.Reply) *smtp.Reply {
	switch {
	case r == nil:
	case r.Code >= 500:
		b.reply5xx.Add(1)
	case r.Code >= 400:
		b.reply4xx.Add(1)
	}
	return r
}

func (b *tracedBackend) ValidateSender(from mail.Address) *smtp.Reply {
	start := time.Now()
	r := b.inner.ValidateSender(from)
	b.rec.add("gateway.sender", b.rec.seqOf(from.String()), false, start, time.Now())
	return b.count(r)
}

func (b *tracedBackend) ValidateRcpt(from, rcpt mail.Address) *smtp.Reply {
	start := time.Now()
	r := b.inner.ValidateRcpt(from, rcpt)
	b.rec.add("gateway.rcpt", b.rec.seqOf(from.String()), false, start, time.Now())
	return b.count(r)
}

func (b *tracedBackend) Deliver(msg *mail.Message) *smtp.Reply {
	seq := seqFromBody(msg.Body)
	if seq == 0 {
		seq = b.rec.seqOf(msg.ID) // an in-process caller registered the ID
	} else {
		b.rec.setSeq(msg.ID, seq)
	}
	// Filters and the challenge sender look the ID up during Deliver.
	defer b.rec.msgSeq.Delete(msg.ID)
	start := time.Now()
	r := b.inner.Deliver(msg)
	b.rec.add("gateway.deliver", seq, false, start, time.Now())
	return b.count(r)
}

// timedProber wraps one filters.Prober inside its Harden wrapper.
type timedProber struct {
	filters.Prober
	rec          *recorder
	span         string
	calls, drops atomic.Int64
}

func (p *timedProber) Probe(msg *mail.Message) (filters.Result, error) {
	start := time.Now()
	res, err := p.Prober.Probe(msg)
	p.rec.add(p.span, p.rec.seqOf(msg.ID), false, start, time.Now())
	p.calls.Add(1)
	if err == nil && res.Verdict == filters.Drop {
		p.drops.Add(1)
	}
	return res, err
}

// tracedResolver wraps the resolver cache handed to the engine. It keeps
// the cache's combined resolvability probe, which the engine looks for.
type tracedResolver struct {
	inner   *dnscache.Cache
	rec     *recorder
	lookups atomic.Int64
}

func (t *tracedResolver) time(start time.Time) {
	t.lookups.Add(1)
	t.rec.add("dnscache.lookup", 0, false, start, time.Now())
}

func (t *tracedResolver) LookupA(h string) ([]string, error) {
	defer t.time(time.Now())
	return t.inner.LookupA(h)
}

func (t *tracedResolver) LookupMX(d string) ([]dnssim.MX, error) {
	defer t.time(time.Now())
	return t.inner.LookupMX(d)
}

func (t *tracedResolver) LookupPTR(ip string) (string, error) {
	defer t.time(time.Now())
	return t.inner.LookupPTR(ip)
}

func (t *tracedResolver) LookupTXT(d string) ([]string, error) {
	defer t.time(time.Now())
	return t.inner.LookupTXT(d)
}

func (t *tracedResolver) ResolvableErr(d string) (bool, error) {
	defer t.time(time.Now())
	return t.inner.ResolvableErr(d)
}

// tracedRBL wraps the blocklist backend handed to the RBL filter.
type tracedRBL struct {
	filters.RBLBackend
	rec *recorder
}

func (t *tracedRBL) Query(ip string) (bool, error) {
	start := time.Now()
	listed, err := t.RBLBackend.Query(ip)
	t.rec.add("rblcache.query", 0, false, start, time.Now())
	return listed, err
}

// tracedSender wraps the engine's challenge sender.
func tracedSender(rec *recorder, inner core.ChallengeSender) core.ChallengeSender {
	return func(ch core.OutboundChallenge) {
		start := time.Now()
		inner(ch)
		rec.add("outbound.enqueue", rec.seqOf(ch.MsgID), false, start, time.Now())
	}
}

// tracedDial wraps the outbound queue's dialer.
func tracedDial(rec *recorder, inner outbound.Dialer) outbound.Dialer {
	return func() (*smtp.Client, error) {
		start := time.Now()
		c, err := inner()
		rec.add("outbound.dial", 0, false, start, time.Now())
		return c, err
	}
}
