package c2knn

import (
	"errors"
	"fmt"

	"c2knn/internal/delta"
	"c2knn/internal/persist"
)

// DefaultGFSeed is the GoldFinger item-hash seed NewGoldFinger and
// c2build make fingerprints with. The fingerprints keep it, a C²
// snapshot records it, and an upsert-enabled index summarizes incoming
// profiles with the seed its fingerprints were made with.
const DefaultGFSeed uint32 = 0x60fd

// DefaultSeed is the FastRandomHash family seed c2build -seed defaults
// to. Serving needs no copy of it: a C² snapshot records the family it
// was built with, and upserts are placed with that.
const DefaultSeed int64 = 42

// ErrUpsertsDisabled is returned by the write-path methods of an Index
// whose delta overlay is not enabled (EnableUpserts was never called,
// or the overlay moved to a successor index after a compaction).
var ErrUpsertsDisabled = errors.New("c2knn: upserts are not enabled on this index")

// UpsertConfig is EnableUpserts' argument. It has no fields: everything
// an overlay needs, the index's graph and fingerprints record (see
// EnableUpserts). The type stays so that existing callers of
// EnableUpserts(UpsertConfig{}) keep compiling.
type UpsertConfig struct{}

// UpsertResult reports one absorbed upsert; see the delta package for
// field semantics.
type UpsertResult = delta.Result

// DeltaStats is the observability snapshot of an index's delta overlay.
type DeltaStats = delta.Stats

// EnableUpserts attaches a delta overlay to the index, turning it into
// an incrementally maintainable one: Upsert absorbs new users and
// ratings in sub-second time, the query methods serve base + delta
// merged views, and CompactInto folds the delta into a fresh snapshot.
//
// Placement reads how the graph was built: upserts are placed with the
// FastRandomHash family BuildC2 recorded on it (B, T, N and seed; a C²
// snapshot carries the record) and fingerprinted with the seed of the
// index's fingerprints, so each upsert lands in the cluster a rebuild
// would put it in. An upsert carrying an item id at or above
// NumItems + max(NumItems, 4096) of the snapshot is refused. The index
// must carry fingerprints and a recorded C² clustering: EnableUpserts
// fails, and the index stays read-only, on a baseline's graph and on a
// snapshot written before the record existed (rebuild it with c2build
// -algo c2). An index loaded from a C² snapshot attaches from the bucket
// table the snapshot carries; any other hashes every profile once
// (delta.Attach). Enabling is one-time per index; the overlay migrates to
// successor indexes through AdoptDeltaFrom.
func (ix *Index) EnableUpserts(UpsertConfig) error {
	if ix.gf == nil {
		return fmt.Errorf("c2knn: index carries no fingerprints; rebuild the snapshot with fingerprints to enable upserts")
	}
	ov, err := delta.Attach(ix.graph, ix.train, ix.gf, ix.buckets)
	if err != nil {
		return err
	}
	if !ix.overlay.CompareAndSwap(nil, ov) {
		return errors.New("c2knn: upserts already enabled on this index")
	}
	return nil
}

// Upserts reports whether the index currently has a delta overlay
// attached.
func (ix *Index) Upserts() bool { return ix.overlay.Load() != nil }

// Upsert absorbs one profile into the index without a rebuild: the
// profile is placed via the FastRandomHash buckets and re-solved only
// against its clusters' rows. user < 0 inserts a new user (the assigned
// id — contiguous after the snapshot's ids, stable across compactions —
// is returned); an existing id merges the items into that user's
// profile. The write is visible to every query issued after Upsert
// returns, and to no query that resolved its view before. Safe for
// concurrent use with queries and other upserts.
func (ix *Index) Upsert(user int32, items []int32) (UpsertResult, error) {
	ov := ix.overlay.Load()
	if ov == nil {
		return UpsertResult{}, ErrUpsertsDisabled
	}
	return ov.Upsert(user, items)
}

// DeltaStats snapshots the overlay's depth/age/counter state; ok is
// false when upserts are not enabled.
func (ix *Index) DeltaStats() (DeltaStats, bool) {
	ov := ix.overlay.Load()
	if ov == nil {
		return DeltaStats{}, false
	}
	return ov.Stats(), true
}

// DeltaSeq returns the overlay's current upsert sequence number (0 when
// upserts are not enabled). Serving caches key on it so results
// invalidate as upserts land within an epoch.
func (ix *Index) DeltaSeq() uint64 {
	ov := ix.overlay.Load()
	if ov == nil {
		return 0
	}
	return ov.View().Seq()
}

// CompactInto folds base + delta into fresh artifacts and writes them
// to path as a v2 snapshot (atomically, like Save). The returned marker
// identifies the upsert sequence the snapshot absorbs: load the file
// into a new index and call AdoptDeltaFrom(old, marker) on it to carry
// the overlay — and any upserts that raced in during the fold — across
// the swap. Upserts and queries continue concurrently throughout.
func (ix *Index) CompactInto(path string) (marker uint64, err error) {
	ov := ix.overlay.Load()
	if ov == nil {
		return 0, ErrUpsertsDisabled
	}
	cmp, err := ov.Compact()
	if err != nil {
		return 0, err
	}
	if err := persist.WriteFile(path, &persist.Snapshot{
		Graph:      cmp.Graph,
		Train:      cmp.Train,
		GoldFinger: cmp.GoldFinger,
	}); err != nil {
		return 0, err
	}
	return cmp.Marker, nil
}

// AdoptDeltaFrom migrates old's delta overlay onto ix after a
// compaction: patches the snapshot ix was loaded from already contains
// (sequence ≤ marker) are dropped, later ones survive. Call it on the
// freshly loaded index before swapping it into service, then
// DetachDelta on the old index once it is out of the serving path —
// requests still draining on the old index fall back to its plain base
// reads (memory-safe; at most one request observes pre-upsert staleness
// during the swap).
func (ix *Index) AdoptDeltaFrom(old *Index, marker uint64) error {
	if old == nil {
		return errors.New("c2knn: no index to adopt a delta overlay from")
	}
	ov := old.overlay.Load()
	if ov == nil {
		return ErrUpsertsDisabled
	}
	if ix.gf == nil {
		return errors.New("c2knn: adopting index carries no fingerprints")
	}
	if err := ov.Rebase(ix.graph, ix.train, ix.gf, marker); err != nil {
		return err
	}
	if !ix.overlay.CompareAndSwap(nil, ov) {
		return errors.New("c2knn: index already has a delta overlay")
	}
	return nil
}

// DetachDelta removes the index's delta overlay reference (a no-op when
// none is attached). Queries revert to the plain base snapshot.
func (ix *Index) DetachDelta() { ix.overlay.Store(nil) }
