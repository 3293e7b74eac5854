package lsm

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/storage"
)

// Snapshot is an immutable read view of the database, acquired in O(tables)
// under a brief read lock and then used entirely lock-free: the table list
// is copy-on-write (writers publish a new slice, never mutate a shared
// one), each referenced sstable is pinned by a refcount so compaction and
// Close cannot unlink or close it mid-read, and the memtable skiplist is
// safe for concurrent readers against its single writer.
//
// Consistency contract (read committed): the on-disk state — table list and
// time bounds — is frozen exactly as of acquisition. The memtable reference
// is to the live write buffer, so records committed after acquisition MAY
// become visible until the next flush rotates the buffer; after rotation
// the captured skiplist is frozen forever. No record visible at acquisition
// time is ever lost from the view, and no key is ever yielded twice: a
// flush moves records into a table this snapshot does not reference, but
// the captured skiplist still holds them. This matches the archive's
// cursor contract, where records archived after a page began may or may not
// appear on that page.
//
// Snapshots are cheap but pin disk space: tables retired while referenced
// are unlinked only when the last snapshot releases. Always Release — it is
// idempotent and nil-safe.
type Snapshot struct {
	db       *DB
	mem      *memtable
	tables   []*sstable // oldest first, as in DB.tables
	ts, te   int32
	released atomic.Bool
}

var errClosed = errors.New("lsm: db closed")

// AcquireSnapshot pins the current read view. The caller must Release it.
func (db *DB) AcquireSnapshot() (*Snapshot, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, errClosed
	}
	s := &Snapshot{db: db, mem: db.mem, tables: db.tables, ts: db.ts, te: db.te}
	for _, t := range s.tables {
		t.ref()
	}
	db.liveSnapshots.Add(1)
	db.mu.RUnlock()
	return s, nil
}

// Release drops the snapshot's table pins. Idempotent; safe on nil.
func (s *Snapshot) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, t := range s.tables {
		t.unref()
	}
	s.db.liveSnapshots.Add(-1)
}

// GetKV returns the value bytes for key, or nil if absent or deleted,
// searching newest → oldest so fresher versions (and tombstones) shadow
// older runs. Safe for any number of concurrent callers.
func (s *Snapshot) GetKV(key [storage.KeySize]byte) ([]byte, error) {
	if v, tomb, ok := s.mem.get(key[:]); ok {
		if tomb {
			return nil, nil
		}
		return v, nil
	}
	env := &s.db.env
	for i := len(s.tables) - 1; i >= 0; i-- {
		v, tomb, err := s.tables[i].get(key[:], env)
		if err != nil {
			return nil, err
		}
		if tomb {
			return nil, nil
		}
		if v != nil {
			return v, nil
		}
	}
	return nil, nil
}

// Fetch returns the live positions of oids at tick t, in oids order,
// omitting absent and deleted keys — the same rows as a GetKV per key, read
// as one forward walk per run. Every run keeps a cursor (fetchCursor) that
// only moves to a new block when a key passes the next block's first key,
// so the walk costs one block-cache lookup per block touched rather than
// one per key, and x/y decode straight from the cached block. Runs are
// consulted newest first per key, so newer versions and tombstones still
// shadow older runs. Bloom filters are probed for every run except the
// oldest: it holds nearly every key, so its filter would almost always
// pass. oids is expected sorted (a model.ObjSet); unsorted input is still
// answered correctly, only without the forward-walk savings.
func (s *Snapshot) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	env := &s.db.env
	curs := make([]fetchCursor, len(s.tables))
	for i := range curs {
		curs[i].bi = -1
	}
	// A memtable empty at this point is skipped: anything written to it
	// since acquisition is allowed, not required, to be visible.
	mem := s.mem.head.next[0].Load() != nil
	var probes, passed int64
	out := make([]model.ObjPos, 0, len(oids))
	for _, oid := range oids {
		key := storage.EncodeKey(t, oid)
		if mem {
			if v, tomb, ok := s.mem.get(key[:]); ok {
				if !tomb {
					out = appendPos(out, oid, v)
				}
				continue
			}
		}
		for i := len(s.tables) - 1; i >= 0; i-- {
			tab := s.tables[i]
			if i > 0 {
				probes++
				if !tab.filter.mayContain(key[:]) {
					continue
				}
				passed++
			}
			rec, err := curs[i].find(tab, binary.BigEndian.Uint64(key[:]), env)
			if err != nil {
				return nil, err
			}
			if rec == nil {
				continue
			}
			if !tab.hasMeta() || rec[storage.RecordSize]&tombFlag == 0 {
				out = appendPos(out, oid, rec[storage.KeySize:storage.RecordSize])
			}
			break
		}
	}
	if env.rs != nil && probes > 0 {
		env.rs.bloomHits.Add(probes - passed)
		env.rs.bloomMisses.Add(passed)
	}
	return out, nil
}

func appendPos(out []model.ObjPos, oid int32, val []byte) []model.ObjPos {
	x, y := storage.DecodeValue(val)
	return append(out, model.ObjPos{OID: oid, X: x, Y: y})
}

// Scan calls fn for every live record with key ≥ start, in ascending key
// order, merged across the captured memtable and runs (newest version of a
// key wins; keys whose newest version is a tombstone are skipped), until fn
// returns false or the keyspace is exhausted. The key and value slices
// passed to fn are only valid during the call. No lock is held: fn may
// block, do I/O, or call back into the DB freely.
func (s *Snapshot) Scan(start [storage.KeySize]byte, fn func(key, val []byte) bool) error {
	its := make([]kvIterator, 0, len(s.tables)+1)
	for _, tab := range s.tables {
		its = append(its, tab.iterator(start[:], &s.db.env))
	}
	its = append(its, s.mem.iterator(start[:]))
	merged := newMergeIter(its)
	for ; merged.valid(); merged.next() {
		s.db.stats.AddScanned(1)
		if merged.tomb() {
			continue
		}
		if !fn(merged.key(), merged.value()) {
			break
		}
	}
	return merged.err()
}

// NumTables returns the number of runs this snapshot pins (for tests).
func (s *Snapshot) NumTables() int { return len(s.tables) }
