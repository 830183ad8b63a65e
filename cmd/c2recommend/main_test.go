package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		folds, k, n int
		wantReject  bool
	}{
		{"ok", 5, 30, 30, false},
		{"minimal", 2, 1, 1, false},
		{"one fold", 1, 30, 30, true},
		{"zero folds", 0, 30, 30, true},
		{"zero k", 5, 0, 30, true},
		{"negative k", 5, -1, 30, true},
		{"zero n", 5, 30, 0, true},
		{"negative n", 5, 30, -3, true},
	} {
		if err := checkFlags(tc.folds, tc.k, tc.n); (err != nil) != tc.wantReject {
			t.Errorf("%s: checkFlags = %v, want rejection %v", tc.name, err, tc.wantReject)
		}
	}
}
