package delta

import (
	"fmt"
	"time"

	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
)

// Compacted is the output of one compaction: fresh, fully validated
// build artifacts covering base + delta, plus the sequence marker they
// absorb. The caller persists them (the snapshot writer accepts them
// verbatim), loads the result, and hands the new artifacts back through
// Rebase.
type Compacted struct {
	Graph      *knng.Frozen
	Train      *dataset.Dataset
	GoldFinger *goldfinger.Set
	// Marker is the highest upsert sequence number the artifacts
	// absorb; pass it to Rebase so later upserts survive the swap.
	Marker uint64
	// Absorbed is the number of upserts folded in (relative to the
	// previous compaction).
	Absorbed int
}

// Compact folds the overlay's current view into fresh build artifacts.
// It runs concurrently with upserts and readers — the fold works off
// one immutable view, and upserts landing during the fold simply carry
// sequence numbers above the returned marker, surviving the subsequent
// Rebase. The artifacts are validated with the same checks the builder
// and the snapshot decoder apply; an inconsistent overlay returns an
// error rather than a writable-but-wrong snapshot.
func (o *Overlay) Compact() (*Compacted, error) {
	v := o.view.Load()
	n := int(v.numUsers)
	words := o.words

	profiles := make([][]int32, n)
	sigs := make([]uint64, n*words)
	ones := make([]int32, n)
	edges := 0
	for u := 0; u < n; u++ {
		id := int32(u)
		p := v.Profile(id)
		if len(p) == 0 {
			return nil, fmt.Errorf("delta: user %d has no profile; overlay is inconsistent", u)
		}
		profiles[u] = p
		sw, so := v.signature(id)
		copy(sigs[u*words:(u+1)*words], sw)
		ones[u] = so
		ids, _ := v.Neighbors(id)
		edges += len(ids)
	}

	// Profiles alias base storage (possibly read-only mapped memory), so
	// the dataset is assembled directly instead of through dataset.New,
	// which normalizes in place. Validate reads only.
	train := &dataset.Dataset{Name: v.train.Name, NumItems: v.numItems, Profiles: profiles}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("delta: compacted dataset invalid: %w", err)
	}
	gf, err := goldfinger.FromParts(o.bits, n, sigs, ones, o.cfg.GFSeed)
	if err != nil {
		return nil, fmt.Errorf("delta: compacted fingerprints invalid: %w", err)
	}

	offsets := make([]int64, n+1)
	ids := make([]int32, 0, edges)
	sims := make([]float32, 0, edges)
	for u := 0; u < n; u++ {
		rowIDs, rowSims := v.Neighbors(int32(u))
		ids = append(ids, rowIDs...)
		sims = append(sims, rowSims...)
		offsets[u+1] = int64(len(ids))
	}
	graph, err := knng.NewFrozen(o.cfg.K, offsets, ids, sims)
	if err != nil {
		return nil, fmt.Errorf("delta: compacted graph invalid: %w", err)
	}
	graph.Clustering = o.cfg.Clustering

	o.mu.Lock()
	absorbed := int(v.seq - o.marker)
	o.mu.Unlock()
	return &Compacted{Graph: graph, Train: train, GoldFinger: gf, Marker: v.seq, Absorbed: absorbed}, nil
}

// Rebase re-anchors the overlay on freshly compacted base artifacts
// (typically a just-loaded snapshot written from Compact's output):
// every record with a sequence number at or below marker is dropped —
// the new base contains it — and later records survive verbatim. Delta
// users the new base absorbed become base users under their existing
// ids; survivors keep theirs, so ids are stable across any number of
// compactions. Readers switch atomically: a view loaded before Rebase
// keeps serving the old base consistently until dropped. The writer's
// coarse buckets need no change: every user is already filed under its
// current profile, which the new base holds for each absorbed user. The
// new base must record the overlay's clustering and fingerprint seed,
// as Compact's artifacts do.
//
// The overlay must be detached from the retiring index once its new
// serving index is installed; a reader that resolves the retired index
// afterwards falls back to plain base reads (memory-safe, at most one
// request stale).
func (o *Overlay) Rebase(graph *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set, marker uint64) error {
	if graph == nil || train == nil || gf == nil {
		return fmt.Errorf("delta: rebase needs a graph, a dataset and fingerprints")
	}
	if gf.Bits() != o.bits {
		return fmt.Errorf("delta: rebase fingerprints are %d bits, overlay uses %d", gf.Bits(), o.bits)
	}
	if graph.K != o.cfg.K {
		return fmt.Errorf("delta: rebase graph has k=%d, overlay uses k=%d", graph.K, o.cfg.K)
	}
	if graph.Clustering != o.cfg.Clustering || gf.Seed() != o.cfg.GFSeed {
		return fmt.Errorf("delta: rebase base was built with clustering %+v and fingerprint seed %#x, overlay places with %+v and %#x",
			graph.Clustering, gf.Seed(), o.cfg.Clustering, o.cfg.GFSeed)
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.view.Load()
	newBaseN := int32(train.NumUsers())
	if newBaseN < cur.baseN || newBaseN > cur.numUsers {
		return fmt.Errorf("delta: rebase base covers %d users, overlay spans [%d, %d]",
			newBaseN, cur.baseN, cur.numUsers)
	}
	if graph.NumUsers() != int(newBaseN) || gf.NumUsers() != int(newBaseN) {
		return fmt.Errorf("delta: rebase artifacts disagree: %d graph users, %d profiles, %d fingerprints",
			graph.NumUsers(), newBaseN, gf.NumUsers())
	}

	// A kept record's profile is newer than the marker or the new
	// base's own (see patch).
	patches := make(map[int32]*patch)
	for k, p := range cur.patches {
		if p.seq > marker {
			patches[k] = p
		}
	}
	// Every surviving delta user must have been created after the
	// capture (ids are assigned contiguously, so absorbed ids are
	// exactly [cur.baseN, newBaseN)); its record, profile included,
	// therefore survived with it.
	for id := newBaseN; id < cur.numUsers; id++ {
		if p := patches[id]; p == nil || p.items == nil {
			return fmt.Errorf("delta: rebase would orphan delta user %d", id)
		}
	}

	o.view.Store(&View{
		graph:    graph,
		train:    train,
		gf:       gf,
		baseN:    newBaseN,
		numUsers: cur.numUsers,
		numItems: max(train.NumItems, cur.numItems),
		seq:      cur.seq,
		patches:  patches,
	})
	if marker > o.marker {
		o.marker = marker
	}
	o.compactions++
	if o.seq <= o.marker {
		o.pending = time.Time{}
	} else {
		// Some upserts raced in during the fold; restart the age clock at
		// the swap rather than tracking each arrival.
		o.pending = o.cfg.now()
	}
	return nil
}
