package wal

// Journal connects the durable stores to a Log. Every store encodes its
// own mutations as Records and hands them to Emit; Journal only appends
// them. Appends are fail-open — a rejected append (fault injection) is
// counted by the log and the in-memory mutation proceeds, mirroring how
// the rest of the pipeline degrades rather than blocks.
type Journal struct {
	log *Log
	tap func(Record)
}

// NewJournal wraps log.
func NewJournal(log *Log) *Journal { return &Journal{log: log} }

// Log returns the underlying log.
func (j *Journal) Log() *Log { return j.log }

// SetTap installs a callback invoked with every successfully appended
// record (LSN filled in). The crash-restart experiment uses it to keep
// the shadow copy of the committed mutation sequence. Must be set
// before the journal is attached.
func (j *Journal) SetTap(fn func(Record)) { j.tap = fn }

// Emit appends one record built by a store and returns the assigned
// LSN, 0 if the append was dropped.
func (j *Journal) Emit(r Record) uint64 {
	lsn, err := j.log.Append(r)
	if err != nil {
		return 0
	}
	if j.tap != nil {
		r.LSN = lsn
		j.tap(r)
	}
	return lsn
}

// Durable is a store that journals its own mutations. SetJournal hands
// it the append function (Journal.Emit), which returns the assigned LSN
// or 0 when the append was dropped.
type Durable interface {
	SetJournal(emit func(Record) uint64)
}

// Attach installs Emit as the change journal of every given store. Nil
// entries are skipped, so callers can pass a literal nil for an unwired
// store.
func (j *Journal) Attach(stores ...Durable) {
	for _, s := range stores {
		if s != nil {
			s.SetJournal(j.Emit)
		}
	}
}
