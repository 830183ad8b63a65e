package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"c2knn/internal/similarity"
)

// Header is the context every record carries, so that a number can be
// read against the machine and build that produced it.
type Header struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Kernel     string  `json:"kernel"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Preset     string  `json:"preset"`
	Scale      float64 `json:"scale"`
	Users      int     `json:"users"`
	Items      int32   `json:"items"`
	Holdout    int     `json:"holdout"`
	LoadMode   string  `json:"load_mode"`
	// Load describes how the generator drives the daemons; UserZipfS is
	// the skew of the users it asks for (the preset's item skew).
	Load      string  `json:"load"`
	UserZipfS float64 `json:"user_zipf_s"`
	Workers   int     `json:"workers"`
	// Flagged lists ratios this machine cannot show, with the reason,
	// instead of recording them as results.
	Flagged []FlaggedRatio `json:"flagged,omitempty"`
}

// FlaggedRatio is a ratio withheld because the machine lacks the cores
// it needs.
type FlaggedRatio struct {
	Name       string `json:"name"`
	NeedsCores int    `json:"needs_cores"`
	HasCores   int    `json:"has_cores"`
	Reason     string `json:"reason"`
}

func newHeader(o options, p profile, in *inputs, workers int) Header {
	mode := os.Getenv("C2_LOAD")
	if mode == "" {
		mode = "auto"
	}
	h := Header{
		Workload: o.workload, Why: p.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Kernel: similarity.KernelName(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Commit: gitCommit(), SourceHash: sourceHash(),
		Preset: p.preset, Scale: o.scale, Users: in.base.NumUsers(), Items: in.base.NumItems, Holdout: len(in.tail),
		LoadMode: mode,
		Load: "one process; closed loop, then open loop (Poisson at 0.1 × the measured capacity, timed from due time); " +
			"≤ GOMAXPROCS generator goroutines, one connection each",
		UserZipfS: in.zipfS,
		Workers:   workers,
	}
	// Router fan-out needs a router, two shards and the generator on
	// cores of their own; measured on fewer, it would time the scheduler.
	h.flag("router.fanout_speedup", 4, "router + 2 shards + generator need a core each; the workload is left out below that")
	if o.trace {
		// Busy time × workers / pairs assumes every solver worker had a
		// core of its own; with fewer cores it would overstate the cost.
		h.flag("similarity.ns_per_pair", workers, "solve busy time × workers / pairs needs one core per solver worker")
	}
	return h
}

// flag withholds a ratio when the machine has fewer cores than it needs.
func (h *Header) flag(name string, needs int, reason string) bool {
	if h.NProc >= needs {
		return false
	}
	h.Flagged = append(h.Flagged, FlaggedRatio{Name: name, NeedsCores: needs, HasCores: h.NProc, Reason: reason})
	return true
}

// flagged reports whether the header withholds the named ratio.
func (h *Header) flagged(name string) bool {
	for _, f := range h.Flagged {
		if f.Name == name {
			return true
		}
	}
	return false
}

// gitCommit resolves HEAD from a .git directory in the working
// directory without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// sourceHash digests the module's Go sources, so a record names the
// program it measured even outside a git checkout.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
