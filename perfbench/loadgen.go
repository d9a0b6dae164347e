package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendResult is one open-loop send, timed from when it was due.
type sendResult struct {
	latency time.Duration // due -> final reply
	late    time.Duration // due -> the send actually started
	backlog int64         // sends already due but not yet started, seen at start
	failed  bool
}

// rung is one fixed-rate step of the open loop.
type rung struct {
	rate    float64
	results []sendResult
}

// openLoop issues sends at a fixed rate for dur over at most conns
// concurrent connections. Send i is due at start + i/rate whether or not
// earlier sends have finished; when every connection is busy a due send
// waits, and that wait is part of its latency. txn performs send i and
// returns when its final reply arrived (it may keep the connection busy
// after that, e.g. for QUIT).
func openLoop(rate float64, dur time.Duration, conns int, txn func(i int64) (time.Time, error)) rung {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	r := rung{rate: rate, results: make([]sendResult, n)}
	var next, started atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				begin := time.Now()
				dueNow := min(int64(begin.Sub(start)/interval)+1, n)
				backlog := dueNow - started.Add(1)
				done, err := txn(i)
				r.results[i] = sendResult{
					latency: done.Sub(due),
					late:    begin.Sub(due),
					backlog: max(backlog, 0),
					failed:  err != nil,
				}
			}
		}()
	}
	wg.Wait()
	return r
}

// latencies returns the rung's latencies in milliseconds; a failed send
// counts as missing every limit (+Inf).
func (r rung) latencies() []float64 {
	out := make([]float64, len(r.results))
	for i, s := range r.results {
		out[i] = float64(s.latency) / 1e6
		if s.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (r rung) lateMs() []float64 {
	out := make([]float64, len(r.results))
	for i, s := range r.results {
		out[i] = float64(s.late) / 1e6
	}
	return out
}

func (r rung) backlogMax() int64 {
	var m int64
	for _, s := range r.results {
		m = max(m, s.backlog)
	}
	return m
}

// p99Window is the span of due times one p99 is taken over.
const p99Window = 500 * time.Millisecond

// p99 is the median over the rung's half-second windows (by due time)
// of each window's p99 latency in milliseconds. A single stall of the
// shared host spoils one window's p99, not the rung's figure; a backlog
// that keeps growing spoils every window.
func (r rung) p99() float64 { return median(r.windowP99s()) }

// windowP99s returns the p99 latency of each half-second window.
func (r rung) windowP99s() []float64 {
	per := max(int(r.rate*p99Window.Seconds()), 1)
	lat := r.latencies()
	var ws []float64
	for i := 0; i < len(lat); i += per {
		ws = append(ws, quantile(lat[i:min(i+per, len(lat))], 0.99))
	}
	return ws
}

func (r rung) sends() int64 { return int64(len(r.results)) }

// meets reports whether the rung held the latency limit.
func (r rung) meets(limitMs float64) bool { return r.p99() <= limitMs }

// maxRate is the highest rate of the ascending ladder that meets the
// limit. Between the last rung that meets it and the first that does
// not, the crossing is interpolated on log(p99), so the figure moves
// continuously with the measured latencies instead of jumping a whole
// rung.
func maxRate(ladder []rung, limitMs float64) float64 {
	for k, r := range ladder {
		if r.meets(limitMs) {
			continue
		}
		hi := math.Min(r.p99(), 1e6)
		if k == 0 {
			return r.rate * limitMs / hi
		}
		lo := ladder[k-1].p99()
		f := (math.Log(limitMs) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		return ladder[k-1].rate + math.Max(0, math.Min(1, f))*(r.rate-ladder[k-1].rate)
	}
	return ladder[len(ladder)-1].rate
}

// closedLoop keeps conns callers busy for dur: each starts its next send
// as soon as the previous one's final reply arrived. The result is a
// rung at the achieved rate with the sends in start order; a send's
// latency is its own connect-to-final-reply time.
func closedLoop(dur time.Duration, conns int, txn func() (time.Time, error)) rung {
	type timed struct {
		begin time.Time
		res   sendResult
	}
	per := make([][]timed, conns)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for begin := time.Now(); begin.Before(end); begin = time.Now() {
				done, err := txn()
				per[w] = append(per[w], timed{begin, sendResult{latency: done.Sub(begin), failed: err != nil}})
			}
		}()
	}
	wg.Wait()
	var all []timed
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].begin.Before(all[j].begin) })
	r := rung{rate: float64(len(all)) / time.Since(start).Seconds(), results: make([]sendResult, len(all))}
	for i, t := range all {
		r.results[i] = t.res
	}
	return r
}
