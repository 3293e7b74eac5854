package lsm

import (
	"repro/internal/model"
	"repro/internal/storage"
)

// view is a Snapshot serving storage.Store. DB.Pin hands one out for a
// whole run of reads; DB.Snapshot and DB.Fetch pin one per call, so the
// scan and fetch bodies below are the only ones. Reads count into the
// DB's IOStats exactly as the DB's own methods do.
type view struct{ s *Snapshot }

// Pin implements storage.Pinner: the returned Store reads one table-list
// version, acquired once, instead of pinning a fresh snapshot per
// Snapshot or Fetch call. Its TimeRange is the range at pin time. Close
// releases the pin and leaves the DB open; until then, runs retired by
// compaction stay on disk. The view is safe for concurrent use.
func (db *DB) Pin() (storage.Store, error) {
	v, err := db.pin()
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (db *DB) pin() (view, error) {
	s, err := db.AcquireSnapshot()
	if err != nil {
		return view{}, err
	}
	return view{s}, nil
}

// TimeRange implements storage.Store.
func (v view) TimeRange() (int32, int32) { return v.s.ts, v.s.te }

// Stats implements storage.Store: the DB's counters.
func (v view) Stats() *storage.IOStats { return &v.s.db.stats }

// Close implements storage.Store by releasing the pin. Idempotent.
func (v view) Close() error {
	v.s.Release()
	return nil
}

// Snapshot implements storage.Store: one merged range scan across the
// pinned runs over the key prefix of timestamp t.
func (v view) Snapshot(t int32) ([]model.ObjPos, error) {
	s := v.s
	if s.te < s.ts || t < s.ts || t > s.te {
		return nil, nil
	}
	start := storage.EncodeKey(t, -1<<31)
	var out []model.ObjPos
	err := s.Scan(start, func(k, val []byte) bool {
		kt, oid := storage.DecodeKey(k)
		if kt != t {
			return false
		}
		x, y := storage.DecodeValue(val)
		out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		return true
	})
	if err != nil {
		return nil, err
	}
	s.db.stats.AddScan(len(out))
	return out, nil
}

// Fetch implements storage.Store: Snapshot.Fetch plus the point-query
// accounting.
func (v view) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	if len(oids) == 0 {
		return nil, nil
	}
	out, err := v.s.Fetch(t, oids)
	if err != nil {
		return nil, err
	}
	st := &v.s.db.stats
	st.AddPointQueries(len(oids), len(out))
	st.AddScanned(len(out))
	return out, nil
}
