package store

import "repro/internal/wal"

// Recovery is the result of a boot-time Recover.
type Recovery struct {
	// Snapshot is the loaded snapshot, nil on first boot.
	Snapshot *Snapshot
	// Log is the opened write-ahead log, ready for appending. The caller
	// owns it (attach the journal, Close on shutdown).
	Log *wal.Log
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Truncated reports whether a torn or corrupt WAL tail was cut off
	// (the expected aftermath of a crash, not an error).
	Truncated bool
	// TornBytes is how many bytes the truncation discarded.
	TornBytes int64
}

// Recover restores an installation's state: load the newest snapshot
// from snapPath (if any), then open the WAL and replay the suffix past
// the snapshot's WalLSN cut into the stores.
//
// Every record replays through Stores.Apply. The cut is sampled
// *before* the stores export (Saver callers sample LastLSN first), so
// mutations journalled during the export window have LSN > cut and
// replay again on top of a snapshot that may already contain them —
// which is safe because every store's Apply is idempotent (whitelist:
// insert-if-absent / delete; reputation: per-entry LSN guard; greylist:
// absolute last-writer-wins state; spool: per-item LSN guard plus a
// terminal-fate set). Conversely every record with LSN <= cut is
// guaranteed inside the snapshot: each store serialises (apply,
// journal) pairs against its export. Greylist tuples that expired
// before the save are absent from the snapshot and skipped by every
// later export, so expiry needs no record of its own.
//
// A torn WAL tail is truncated, never fatal: the only hard failures are
// I/O errors and a snapshot newer than this build understands.
func Recover(snapPath string, walOpts wal.Options, st Stores) (*Recovery, error) {
	snap, err := LoadFile(snapPath, st)
	if err != nil {
		return nil, err
	}
	var fromLSN uint64
	if snap != nil {
		fromLSN = snap.WalLSN
	}
	log, stats, err := wal.Open(walOpts, fromLSN, st.Apply)
	if err != nil {
		return nil, err
	}
	return &Recovery{
		Snapshot:  snap,
		Log:       log,
		Replayed:  stats.Replayed,
		Truncated: stats.Truncated,
		TornBytes: stats.TornBytes,
	}, nil
}
