package core

import "testing"

func TestNegativeWorkersClamped(t *testing.T) {
	b, _ := testData(t)
	g, _ := Build(b.data, b.gf, Options{K: 10, B: 128, T: 4, MaxClusterSize: 100, Workers: -1, Seed: 3})
	if g.NumUsers() != b.data.NumUsers() {
		t.Fatal("negative workers broke the build")
	}
}

// TestNegativeKClamped: a negative K takes the default like K = 0
// instead of panicking inside a solver goroutine.
func TestNegativeKClamped(t *testing.T) {
	b, _ := testData(t)
	g, _ := Build(b.data, b.gf, Options{K: -1, B: 128, T: 4, MaxClusterSize: 100, Workers: 2, Seed: 3})
	if g.NumUsers() != b.data.NumUsers() || g.K != 30 {
		t.Fatalf("negative K: %d users, K = %d; want %d users, K = 30", g.NumUsers(), g.K, b.data.NumUsers())
	}
}
