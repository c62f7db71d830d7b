package cost

// Cross-request structural sharing (DESIGN.md "Cross-request sharing"):
// intern.go removes repeated table builds *within*
// one model, but a sweep over cluster sizes or a fleet of near-duplicate
// requests still rebuilds byte-identical class tables once per model. A
// ClassStore lifts the class cache to the planner: it is keyed by the same
// canonical class fingerprints intern.go computes — identities over machine
// spec, enumeration policy, and node content, never over node IDs or dense
// per-model class numbers — so any two model builds that would construct the
// same table bytes resolve them from one shared entry, across distinct
// graphs, sweep points, and concurrent builds.
//
// Four entry kinds mirror the build phases:
//
//   - vertex entry (content class fp): the enumerated configuration list and
//     TL row, pre-pruning.
//   - edge entry (edge class fp): the full TX table and its transpose.
//   - prune entry (prune class fp + epsilon): the survivor set, the
//     full-index → dense-ID map, and the compacted config list and TL row.
//   - compact-TX entry (edge class fp + both endpoint prune class fps +
//     epsilon): the survivor-gathered TX table, transpose, and row stride.
//
// Entries are immutable once published — models alias the stored slices and
// never write them — so sharing is value-transparent: a store-enabled build
// is byte-identical to the BuildOptions store-less build (the planner's
// DisableClassStore oracle), pinned by property tests.
//
// Concurrency: lookups singleflight per fingerprint with a ready channel —
// concurrent builds needing the same class block until the first builder
// publishes, then alias its tables. Build errors are never cached (the error
// text names the failing model's own node) and unblock waiters to build —
// and fail — on their own.
//
// Eviction is deterministic LRU by resident bytes: completing a build or
// hitting an entry front-moves it, and publishing evicts exact tail entries
// until the store fits its budget again. An entry evicted while models still
// alias its tables stays valid for those models (slices are reference-held);
// the store merely forgets it for future builds.

import (
	"sync"

	"pase/internal/canon"
	"pase/internal/itspace"
)

// DefaultClassStoreBytes is the store budget used when NewClassStore is
// given a non-positive limit: 256 MB of class tables, roughly forty
// Transformer-p=32-sized models' worth of distinct classes.
const DefaultClassStoreBytes = 256 << 20

// ClassStoreStats is a snapshot of a store's counters.
type ClassStoreStats struct {
	// Hits counts class references a build resolved from the store (the
	// table build that did not run); Misses counts the builds that ran.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped to keep the store within budget.
	Evictions int64
	// Bytes is the resident table bytes the store currently holds.
	Bytes int64
	// SavedBytes is the cumulative table bytes served by hits — what the
	// store-less builds would have allocated again.
	SavedBytes int64
	// Entries is the current entry count.
	Entries int
}

// storeEntry is one cached class. ready is closed when val/bytes are
// published; err is only ever set on a removed (never-cached) entry, so
// waiters know to rebuild themselves.
type storeEntry struct {
	key        canon.Fingerprint
	val        any
	bytes      int64
	err        error
	ready      chan struct{}
	prev, next *storeEntry
}

// ClassStore is a bounded, deterministic, singleflight-guarded cache of
// class-level cost tables, shared by every model build of one planner. Safe
// for concurrent use.
type ClassStore struct {
	maxBytes int64

	mu         sync.Mutex
	entries    map[canon.Fingerprint]*storeEntry
	head, tail *storeEntry // LRU: head most recent
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64
	saved      int64
}

// NewClassStore returns a store bounded to maxBytes of resident class
// tables (non-positive selects DefaultClassStoreBytes).
func NewClassStore(maxBytes int64) *ClassStore {
	if maxBytes <= 0 {
		maxBytes = DefaultClassStoreBytes
	}
	return &ClassStore{
		maxBytes: maxBytes,
		entries:  map[canon.Fingerprint]*storeEntry{},
	}
}

// Stats returns a snapshot of the store's counters.
func (s *ClassStore) Stats() ClassStoreStats {
	if s == nil {
		return ClassStoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ClassStoreStats{
		Hits:       s.hits,
		Misses:     s.misses,
		Evictions:  s.evictions,
		Bytes:      s.bytes,
		SavedBytes: s.saved,
		Entries:    len(s.entries),
	}
}

func (s *ClassStore) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *ClassStore) pushFront(e *storeEntry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// getOrBuild resolves the class keyed by fp: a published entry is a hit, a
// concurrent build is joined, and an absent class runs build exactly once.
// hit reports whether this caller avoided the build; bytes is the entry's
// resident size (what a hit saved). Errors are returned uncached.
func (s *ClassStore) getOrBuild(fp canon.Fingerprint, build func() (any, int64, error)) (val any, hit bool, bytes int64, err error) {
	for {
		s.mu.Lock()
		if e, ok := s.entries[fp]; ok {
			select {
			case <-e.ready:
				// Published: front-move and serve.
				if s.head != e {
					s.unlink(e)
					s.pushFront(e)
				}
				s.hits++
				s.saved += e.bytes
				s.mu.Unlock()
				return e.val, true, e.bytes, nil
			default:
			}
			s.mu.Unlock()
			<-e.ready
			if e.err != nil {
				// The builder failed; its entry is gone. Loop to build (and
				// report the error against this model's own nodes).
				continue
			}
			s.mu.Lock()
			if s.entries[fp] == e && s.head != e {
				s.unlink(e)
				s.pushFront(e)
			}
			s.hits++
			s.saved += e.bytes
			s.mu.Unlock()
			return e.val, true, e.bytes, nil
		}
		e := &storeEntry{key: fp, ready: make(chan struct{})}
		s.entries[fp] = e
		s.pushFront(e)
		s.misses++
		s.mu.Unlock()

		e.val, e.bytes, e.err = build()
		s.mu.Lock()
		if e.err != nil {
			if s.entries[fp] == e {
				delete(s.entries, fp)
				s.unlink(e)
			}
			s.mu.Unlock()
			close(e.ready)
			return nil, false, 0, e.err
		}
		s.bytes += e.bytes
		// Deterministic LRU eviction: drop exact tail entries (skipping any
		// still building — they hold no bytes) until the budget holds. A
		// single entry larger than the whole budget stays resident until the
		// next publish displaces it; refusing it entirely would break the
		// build that is aliasing it right now.
		for s.bytes > s.maxBytes {
			victim := s.tail
			for victim != nil {
				if victim != e {
					select {
					case <-victim.ready:
					default:
						victim = victim.prev
						continue
					}
					break
				}
				victim = victim.prev
			}
			if victim == nil {
				break
			}
			s.unlink(victim)
			delete(s.entries, victim.key)
			s.bytes -= victim.bytes
			s.evictions++
		}
		s.mu.Unlock()
		close(e.ready)
		return e.val, false, e.bytes, nil
	}
}

// Stored value kinds, one per build phase.

// vertexTables is a vertex content class's enumeration and layer-cost row.
type vertexTables struct {
	cfgs []itspace.Config
	tl   []float64
}

// edgeTables is an edge class's full TX table and transpose.
type edgeTables struct {
	tab  []float64
	tabT []float64
}

// pruneTables is a prune class's config-space reduction outcome: survivors,
// the full-index → dense-ID map, and the compacted config list and TL row
// (aliases of the vertex entry's slices when nothing was pruned).
type pruneTables struct {
	keep []int
	rep  []int32
	cfgs []itspace.Config
	tl   []float64
}

// compactTables is a compacted TX table for one (edge class, producer prune
// class, consumer prune class): survivor-gathered values, transpose, and row
// stride (aliases of the edge entry when neither endpoint pruned).
type compactTables struct {
	tab  []float64
	tabT []float64
	kv   int
}

// configBytes estimates the resident bytes of a config list: the slice
// headers plus each configuration's int backing.
func configBytes(cfgs []itspace.Config) int64 {
	b := int64(len(cfgs)) * 24
	for _, c := range cfgs {
		b += int64(len(c)) * 8
	}
	return b
}

// Snapshot entry kinds, one per stored value type (see the phase kinds
// above). The zero kind is reserved so a corrupt entry never decodes as
// valid.
const (
	snapKindVertex uint8 = iota + 1
	snapKindEdge
	snapKindPrune
	snapKindCompact
)

// StoreSnapshotEntry is one class entry in wire form — a flattened union of
// the four stored table kinds, safe for gob. Produced by Snapshot and
// consumed by Restore; the planner embeds these in its warm-restart snapshot
// (DESIGN.md "Pressure & degradation").
type StoreSnapshotEntry struct {
	Key   canon.Fingerprint
	Kind  uint8
	Bytes int64
	Cfgs  []itspace.Config
	TL    []float64
	Tab   []float64
	TabT  []float64
	Keep  []int
	Rep   []int32
	KV    int
}

// Snapshot returns the store's published entries from least to most recently
// used, so that a Restore in slice order reproduces the recency order.
// Entries still building are skipped — they hold no tables yet.
func (s *ClassStore) Snapshot() []StoreSnapshotEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoreSnapshotEntry, 0, len(s.entries))
	for e := s.tail; e != nil; e = e.prev {
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.err != nil {
			continue
		}
		se := StoreSnapshotEntry{Key: e.key, Bytes: e.bytes}
		switch v := e.val.(type) {
		case vertexTables:
			se.Kind, se.Cfgs, se.TL = snapKindVertex, v.cfgs, v.tl
		case edgeTables:
			se.Kind, se.Tab, se.TabT = snapKindEdge, v.tab, v.tabT
		case pruneTables:
			se.Kind, se.Keep, se.Rep, se.Cfgs, se.TL = snapKindPrune, v.keep, v.rep, v.cfgs, v.tl
		case compactTables:
			se.Kind, se.Tab, se.TabT, se.KV = snapKindCompact, v.tab, v.tabT, v.kv
		default:
			continue
		}
		out = append(out, se)
	}
	return out
}

// Restore publishes snapshot entries into the store, in slice order (least
// recent first — each insert front-moves, so the last entry ends most
// recent). Entries with unknown kinds are skipped (a newer snapshot restored
// by older code degrades to a partial warm cache), as are keys already
// present or building. After inserting, the store evicts tail entries as
// usual until its byte budget holds. Returns the number of entries restored.
func (s *ClassStore) Restore(entries []StoreSnapshotEntry) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	restored := 0
	for i := range entries {
		se := &entries[i]
		var val any
		switch se.Kind {
		case snapKindVertex:
			val = vertexTables{cfgs: se.Cfgs, tl: se.TL}
		case snapKindEdge:
			val = edgeTables{tab: se.Tab, tabT: se.TabT}
		case snapKindPrune:
			val = pruneTables{keep: se.Keep, rep: se.Rep, cfgs: se.Cfgs, tl: se.TL}
		case snapKindCompact:
			val = compactTables{tab: se.Tab, tabT: se.TabT, kv: se.KV}
		default:
			continue
		}
		if _, ok := s.entries[se.Key]; ok {
			continue
		}
		e := &storeEntry{key: se.Key, val: val, bytes: se.Bytes, ready: make(chan struct{})}
		close(e.ready)
		s.entries[se.Key] = e
		s.pushFront(e)
		s.bytes += e.bytes
		restored++
	}
	for s.bytes > s.maxBytes && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.bytes
		s.evictions++
	}
	return restored
}
