package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		scale       float64
		folds, k, n int
		wantReject  bool
	}{
		{"ok", 0.1, 5, 30, 30, false},
		{"minimal", 0.1, 2, 1, 1, false},
		{"one fold", 0.1, 1, 30, 30, true},
		{"zero folds", 0.1, 0, 30, 30, true},
		{"zero k", 0.1, 5, 0, 30, true},
		{"negative k", 0.1, 5, -1, 30, true},
		{"zero n", 0.1, 5, 30, 0, true},
		{"negative n", 0.1, 5, 30, -3, true},
		{"paper scale", 1, 5, 30, 30, false},
		{"zero scale", 0, 5, 30, 30, true},
		{"negative scale", -1, 5, 30, 30, true},
		{"NaN scale", math.NaN(), 5, 30, 30, true},
		{"infinite scale", math.Inf(1), 5, 30, 30, true},
	} {
		if err := checkFlags(tc.scale, tc.folds, tc.k, tc.n); (err != nil) != tc.wantReject {
			t.Errorf("%s: checkFlags = %v, want rejection %v", tc.name, err, tc.wantReject)
		}
	}
}
