package logscan

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/maillog"
)

// MaxLineLen is the longest log line a scan decodes. A longer line is
// drained through its newline and counted as one bad line, in every
// scan mode, so it costs one bad line rather than the rest of the
// crawl.
const MaxLineLen = 1024 * 1024

// flushEvery is how many events a worker folds locally before flushing
// into the shared progress counters. Coarse enough to keep the atomics
// off the per-line path, fine enough for a 5-second progress ticker.
const flushEvery = 8192

// minRangeBytes is the smallest byte range worth giving a worker; tiny
// files collapse to fewer workers rather than paying spawn overhead.
const minRangeBytes = 64 * 1024

// Counters exposes a running scan's progress. Workers flush their
// local tallies every few thousand events, so readers see slightly
// stale but monotonic values — enough for an events/sec ticker on a
// multi-minute crawl.
type Counters struct {
	Events   atomic.Int64
	Lines    atomic.Int64
	BadLines atomic.Int64
	Bytes    atomic.Int64
}

// Package-wide totals across all scans in the process, exported to the
// adminui /metrics page as logscan_events_total / logscan_bad_lines_total.
var (
	totalEvents   atomic.Int64
	totalBadLines atomic.Int64
)

// Stats is a snapshot of the process-wide scan totals.
type Stats struct {
	Events   int64
	BadLines int64
}

// TotalStats returns the process-wide totals over every scan so far.
func TotalStats() Stats {
	return Stats{Events: totalEvents.Load(), BadLines: totalBadLines.Load()}
}

// Options configures a scan. The zero value is ready to use.
type Options struct {
	// Workers is the parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Counter, when non-nil, receives periodic progress updates.
	Counter *Counters
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// tally is a worker's local fold state: a shard aggregate plus event
// counts batched between flushes into the shared counters.
type tally struct {
	agg    *maillog.Aggregate
	opts   *Options
	events int64 // events since last flush
	bytes  int64 // bytes since last flush
}

func newTally(opts *Options) *tally {
	return &tally{agg: maillog.NewAggregate(), opts: opts}
}

// line processes one raw line (whitespace-trimmed here; may be empty).
func (t *tally) line(d *Decoder, e *maillog.Event, raw []byte) {
	t.bytes += int64(len(raw))
	b := bytes.TrimSpace(raw)
	if len(b) == 0 {
		return
	}
	t.agg.Lines++
	if err := d.ParseLineBytes(b, e); err != nil {
		t.agg.BadLines++
		return
	}
	t.agg.Add(*e)
	t.events++
	if t.events >= flushEvery {
		t.flush()
	}
}

// oversized records a line past MaxLineLen: one bad line, n bytes.
func (t *tally) oversized(n int64) {
	t.agg.Lines++
	t.agg.BadLines++
	t.bytes += n
}

// flush publishes the local batch to the shared counters.
func (t *tally) flush() {
	if t.events > 0 {
		totalEvents.Add(t.events)
	}
	if c := t.opts.Counter; c != nil {
		c.Events.Add(t.events)
		c.Bytes.Add(t.bytes)
	}
	t.events, t.bytes = 0, 0
}

// finish flushes the batch plus the per-shard line totals.
func (t *tally) finish() {
	t.flush()
	totalBadLines.Add(t.agg.BadLines)
	if c := t.opts.Counter; c != nil {
		c.Lines.Add(t.agg.Lines)
		c.BadLines.Add(t.agg.BadLines)
	}
}

// Scan aggregates the rest of a decision-log stream in parallel, from
// the reader's current position to its end. Inputs backed by a
// random-access source — a regular file, bytes.Reader, strings.Reader
// — are range-split across workers with no producer in the way (and
// their position is left where it was); anything else (a pipe, stdin)
// falls back to a bounded single-reader producer feeding worker-owned
// block buffers. The aggregate is identical for any worker count and
// on either path.
func Scan(r io.Reader, opts Options) (*maillog.Aggregate, error) {
	// remainder reports the unread part [off,size) of an in-memory
	// reader: bytes.Reader and strings.Reader.
	type remainder interface {
		io.ReaderAt
		Size() int64
		Len() int
	}
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			if off, err := v.Seek(0, io.SeekCurrent); err == nil {
				return scanTail(v, off, fi.Size(), opts)
			}
		}
	case remainder:
		return scanTail(v, v.Size()-int64(v.Len()), v.Size(), opts)
	}
	return scanStream(r, opts)
}

// scanTail range-splits the bytes [off,size) of r.
func scanTail(r io.ReaderAt, off, size int64, opts Options) (*maillog.Aggregate, error) {
	n := max(0, size-off)
	return ScanReaderAt(io.NewSectionReader(r, off, n), n, opts)
}

// ScanFile range-splits one log file across the configured workers.
func ScanFile(path string, opts Options) (*maillog.Aggregate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Scan(f, opts)
}

// ScanReaderAt splits [0,size) into worker-count byte ranges and scans
// them concurrently. Range boundaries are arbitrary byte offsets; each
// worker owns exactly the lines that START inside its range (skipping
// the partial head line, finishing a line that runs past its end), so
// every line is decoded exactly once no matter where the cuts land.
func ScanReaderAt(r io.ReaderAt, size int64, opts Options) (*maillog.Aggregate, error) {
	nw := opts.workers()
	if maxw := int(size / minRangeBytes); nw > maxw {
		nw = max(1, maxw)
	}

	shards := make([]*tally, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		start := size * int64(i) / int64(nw)
		end := size * int64(i+1) / int64(nw)
		t := newTally(&opts)
		shards[i] = t
		wg.Add(1)
		go func(i int, start, end int64) {
			defer wg.Done()
			errs[i] = scanRange(r, start, end, size, t)
			t.finish()
		}(i, start, end)
	}
	wg.Wait()

	agg := maillog.NewAggregate()
	for _, t := range shards {
		agg.Merge(t.agg)
	}
	for _, err := range errs {
		if err != nil {
			return agg, err
		}
	}
	return agg, nil
}

// readLine returns the next line of br, newline included, and n, the
// bytes it consumed. A line longer than br's buffer (MaxLineLen) is
// drained through its newline instead and reported as oversized, with
// line nil and n its full length. It is the one place a decision log
// is framed into lines.
func readLine(br *bufio.Reader) (line []byte, n int64, oversized bool, err error) {
	line, err = br.ReadSlice('\n')
	n = int64(len(line))
	if err != bufio.ErrBufferFull {
		return line, n, false, err
	}
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		n += int64(len(line))
	}
	return nil, n, true, err
}

// scanRange processes every line starting in [start,end) of r, reading
// past end as needed to complete the final line. size is the total
// input length (the section reader must be allowed to run to it).
func scanRange(r io.ReaderAt, start, end, size int64, t *tally) error {
	br := bufio.NewReaderSize(io.NewSectionReader(r, start, size-start), MaxLineLen)
	pos := start
	d := NewDecoder()
	d.SkipMsgID = true
	var e maillog.Event

	// A mid-file range usually starts inside some line owned by the
	// previous worker: discard through its newline. The exception is a
	// cut landing exactly on a line start (the preceding byte is a
	// newline) — that line is ours. If the straddling line is oversized
	// the previous worker still owns (and counts) it — the discard here
	// must not tally anything.
	if start > 0 {
		var prev [1]byte
		if _, err := r.ReadAt(prev[:], start-1); err != nil {
			return fmt.Errorf("logscan: read error at byte %d: %w", start-1, err)
		}
		if prev[0] != '\n' {
			_, n, _, err := readLine(br)
			pos += n
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("logscan: read error at byte %d: %w", pos, err)
			}
		}
	}

	for pos < end {
		// An oversized line owned by this range counts once, though
		// its newline may lie past end.
		line, n, oversized, err := readLine(br)
		pos += n
		if oversized {
			t.oversized(n)
		} else {
			t.line(d, &e, line)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("logscan: read error at byte %d: %w", pos, err)
		}
	}
	return nil
}

// scanStream is the non-seekable fallback: one producer frames lines
// into worker-owned block buffers; workers decode and fold into shard
// aggregates. The producer does only framing and memcpy, so it feeds
// several parse workers before becoming the bottleneck.
func scanStream(r io.Reader, opts Options) (*maillog.Aggregate, error) {
	nw := opts.workers()
	const blockSize = 1 << 20

	work := make(chan []byte, nw)
	free := make(chan []byte, 2*nw)
	for i := 0; i < 2*nw; i++ {
		free <- make([]byte, 0, blockSize)
	}

	shards := make([]*tally, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		t := newTally(&opts)
		shards[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewDecoder()
			d.SkipMsgID = true
			var e maillog.Event
			for block := range work {
				for len(block) > 0 {
					nl := bytes.IndexByte(block, '\n')
					if nl < 0 {
						t.line(d, &e, block)
						break
					}
					t.line(d, &e, block[:nl+1])
					block = block[nl+1:]
				}
				free <- block[:0:cap(block)]
			}
			t.finish()
		}()
	}

	// Producer: frame complete lines into blocks. The tally here counts
	// only oversized lines the workers never see.
	prodTally := newTally(&opts)
	br := bufio.NewReaderSize(r, MaxLineLen)
	var perr error
	block := (<-free)[:0]
	ship := func() {
		if len(block) > 0 {
			work <- block
			block = (<-free)[:0]
		}
	}
	for {
		line, n, oversized, err := readLine(br)
		if oversized {
			prodTally.oversized(n)
		} else {
			if len(block)+len(line) > cap(block) {
				ship()
			}
			block = append(block, line...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			perr = err
			break
		}
	}
	ship()
	close(work)
	wg.Wait()
	prodTally.finish()

	agg := maillog.NewAggregate()
	agg.Merge(prodTally.agg)
	for _, t := range shards {
		agg.Merge(t.agg)
	}
	if perr != nil {
		return agg, fmt.Errorf("logscan: read error after line %d: %w", agg.Lines, perr)
	}
	return agg, nil
}
