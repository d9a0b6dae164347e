// Package wal implements the durable write-ahead log for the filter's
// mutable state: every whitelist, reputation, greylist and outbound
// spool mutation is appended as a framed record before (or atomically
// with) its in-memory effect, so a crash loses at most the un-fsynced
// tail instead of a whole snapshot interval.
//
// The log is typed but knows no store: Record and the Op numbering are
// the whole contract. Each store encodes its own mutations into Records
// (handed to Journal.Emit through its SetJournal hook) and decodes them
// again in its own Apply(Record) method, ignoring ops it does not own.
// The package imports no domain package.
//
// On-disk layout: a directory of segment files named wal-%016x.seg by
// the LSN of their first record. Each segment starts with an 8-byte
// magic and the first LSN, followed by frames:
//
//	u32 LE payload length | u32 LE CRC32-C of payload | payload
//
// The payload is a compact varint encoding of one Record. Frames are
// self-delimiting and checksummed, so replay walks a segment until the
// first short, oversized or checksum-failing frame and truncates there:
// a torn tail (the normal result of a crash mid-write) is data loss
// bounded by the group-commit window, never a boot failure.
//
// LSNs are assigned at append, start at 1 and are gapless and strictly
// monotonic across segment rotations and restarts, which is what lets a
// snapshot record a cut ("state covers LSNs <= N") and compaction delete
// sealed segments wholly below it.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Op identifies the mutation a record carries.
type Op uint8

// Record operations. Values are part of the on-disk format; never
// renumber, only append.
const (
	// OpWhiteAdd adds Sender to User's whitelist (Value = whitelist.Source).
	OpWhiteAdd Op = 1 + iota
	// OpBlackAdd adds Sender to User's blacklist.
	OpBlackAdd
	// OpWhiteRemove deletes Sender from User's whitelist.
	OpWhiteRemove
	// OpReputation records one outcome observation (Value =
	// reputation.Outcome) against Sender/IP.
	OpReputation
	// OpGreylist sets one greylist tuple (User = tuple key, Time =
	// first-seen, Aux = passed-at unix nanoseconds or 0).
	OpGreylist
	// OpSpoolEnqueue admits one outbound challenge into the durable
	// spool (User = original message ID, Sender = destination address,
	// Value = challenge size, Aux = issued-at unix nanoseconds, Blob =
	// JSON of the remaining challenge fields).
	OpSpoolEnqueue
	// OpSpoolAttempt records a non-terminal delivery attempt (User =
	// message ID, Origin = error class, Value = attempt count, Aux =
	// next-try unix nanoseconds, Blob = last error text).
	OpSpoolAttempt
	// OpSpoolSent marks a spool item delivered (User = message ID,
	// Value = attempt count).
	OpSpoolSent
	// OpSpoolBounced marks a spool item permanently rejected (User =
	// message ID, Origin = error class, Value = attempt count, Blob =
	// last error text).
	OpSpoolBounced
	// OpSpoolExpired marks a spool item expired after exhausting its
	// retry schedule (User = message ID, Origin = last error class,
	// Value = attempt count, Blob = last error text).
	OpSpoolExpired
)

// String returns the op label.
func (o Op) String() string {
	switch o {
	case OpWhiteAdd:
		return "white-add"
	case OpBlackAdd:
		return "black-add"
	case OpWhiteRemove:
		return "white-remove"
	case OpReputation:
		return "reputation"
	case OpGreylist:
		return "greylist"
	case OpSpoolEnqueue:
		return "spool-enqueue"
	case OpSpoolAttempt:
		return "spool-attempt"
	case OpSpoolSent:
		return "spool-sent"
	case OpSpoolBounced:
		return "spool-bounced"
	case OpSpoolExpired:
		return "spool-expired"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Record is one journalled mutation. Field use varies by Op (see the Op
// constants); Origin names the event that produced the mutation (the
// engine's whitelist source, the reputation outcome, "greylist", ...)
// so operators reading a dump can see *why* state changed.
type Record struct {
	LSN    uint64
	Time   time.Time
	Op     Op
	Origin string
	User   string
	Sender string
	IP     string
	Value  int64
	Aux    int64
	// Blob is an op-specific extension payload appended after the fixed
	// fields. It decodes to "" from records written before it existed,
	// and old readers ignore it, so both directions stay compatible.
	Blob string
}

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both amd64 and arm64, and the standard WAL checksum choice).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// frameHeader is the per-record framing overhead.
	frameHeader = 8
	// maxRecordBytes bounds a single payload; anything larger in a length
	// header is framing garbage, not a record.
	maxRecordBytes = 1 << 20
)

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendFrame appends r as one framed record to dst and returns the
// extended slice. It allocates nothing beyond dst growth, which is what
// keeps Append at zero amortised allocations.
func appendFrame(dst []byte, r *Record) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC backfilled below
	p := len(dst)
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = binary.AppendVarint(dst, r.Time.UnixNano())
	dst = append(dst, byte(r.Op))
	dst = appendString(dst, r.Origin)
	dst = appendString(dst, r.User)
	dst = appendString(dst, r.Sender)
	dst = appendString(dst, r.IP)
	dst = binary.AppendVarint(dst, r.Value)
	dst = binary.AppendVarint(dst, r.Aux)
	if r.Blob != "" {
		dst = appendString(dst, r.Blob)
	}
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// errBadFrame marks any framing failure: short header, absurd length,
// short payload, checksum mismatch, or undecodable payload. Replay
// treats every flavour identically — truncate the segment here.
var errBadFrame = fmt.Errorf("wal: bad frame")

// decodeFrame parses the first frame in b. It returns the record and
// the total frame size, or errBadFrame if b does not start with a
// complete, checksum-clean frame.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, errBadFrame
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n <= 0 || n > maxRecordBytes || len(b) < frameHeader+n {
		return Record{}, 0, errBadFrame
	}
	payload := b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, errBadFrame
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, errBadFrame
	}
	return r, frameHeader + n, nil
}

// decodePayload parses the varint body of one record.
func decodePayload(p []byte) (Record, error) {
	var r Record
	var err error
	pos := 0
	uv := func() uint64 {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			err = io.ErrUnexpectedEOF
			return 0
		}
		pos += n
		return v
	}
	sv := func() int64 {
		v, n := binary.Varint(p[pos:])
		if n <= 0 {
			err = io.ErrUnexpectedEOF
			return 0
		}
		pos += n
		return v
	}
	str := func() string {
		n := int(uv())
		if err != nil {
			return ""
		}
		if n < 0 || pos+n > len(p) {
			err = io.ErrUnexpectedEOF
			return ""
		}
		s := string(p[pos : pos+n])
		pos += n
		return s
	}
	r.LSN = uv()
	r.Time = time.Unix(0, sv()).UTC()
	if err != nil {
		return r, err
	}
	if pos >= len(p) {
		return r, io.ErrUnexpectedEOF
	}
	r.Op = Op(p[pos])
	pos++
	r.Origin = str()
	r.User = str()
	r.Sender = str()
	r.IP = str()
	r.Value = sv()
	r.Aux = sv()
	if err == nil && pos < len(p) {
		r.Blob = str()
	}
	return r, err
}
