package main

import (
	"testing"

	"c2knn/internal/frh"
)

func TestCheckFlags(t *testing.T) {
	const buckets = frh.DefaultShardBuckets
	for _, tc := range []struct {
		name                     string
		in, snap, algo           string
		k, workers, shards, bkts int
		wantReject               bool
	}{
		{"ok", "d.txt", "", "c2", 30, 1, 0, buckets, false},
		{"ok baseline", "d.txt", "", "nndescent", 30, 4, 0, buckets, false},
		{"ok sharded", "d.txt", "ix.c2", "c2", 30, 1, 2, buckets, false},
		{"ok one bucket per shard", "d.txt", "ix.c2", "lsh", 30, 1, 3, 3, false},
		{"missing -in", "", "", "c2", 30, 1, 0, buckets, true},
		{"unknown algo", "d.txt", "", "bogus", 30, 1, 0, buckets, true},
		{"zero k", "d.txt", "", "c2", 0, 1, 0, buckets, true},
		{"negative k", "d.txt", "", "c2", -1, 1, 0, buckets, true},
		{"zero workers", "d.txt", "", "c2", 30, 0, 0, buckets, true},
		{"negative workers", "d.txt", "", "nndescent", 30, -1, 0, buckets, true},
		{"shards without snap", "d.txt", "", "c2", 30, 1, 2, buckets, true},
		{"one shard", "d.txt", "ix.c2", "c2", 30, 1, 1, buckets, true},
		{"negative shards", "d.txt", "ix.c2", "c2", 30, 1, -2, buckets, true},
		{"zero shard buckets", "d.txt", "ix.c2", "c2", 30, 1, 2, 0, true},
		{"fewer buckets than shards", "d.txt", "ix.c2", "c2", 30, 1, 3, 2, true},
	} {
		err := checkFlags(tc.in, tc.snap, tc.algo, tc.k, tc.workers, tc.shards, tc.bkts)
		if (err != nil) != tc.wantReject {
			t.Errorf("%s: checkFlags = %v, want rejection %v", tc.name, err, tc.wantReject)
		}
	}
}
