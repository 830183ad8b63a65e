package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		in, snap   string
		k, shards  int
		wantReject bool
	}{
		{"ok", "d.txt", "", 30, 0, false},
		{"ok sharded", "d.txt", "ix.c2", 30, 2, false},
		{"missing -in", "", "", 30, 0, true},
		{"zero k", "d.txt", "", 0, 0, true},
		{"negative k", "d.txt", "", -1, 0, true},
		{"shards without snap", "d.txt", "", 30, 2, true},
	} {
		if err := checkFlags(tc.in, tc.snap, tc.k, tc.shards); (err != nil) != tc.wantReject {
			t.Errorf("%s: checkFlags = %v, want rejection %v", tc.name, err, tc.wantReject)
		}
	}
}
