// Package experiments contains one runner per table and figure of the
// paper's evaluation (§IV–§VI). Each runner generates (or reuses) the
// calibrated synthetic datasets, executes the algorithms under the
// paper's parameters, and returns structured rows mirroring what the
// paper reports — computation time, KNN quality, recall, cluster sizes —
// while also rendering a paper-style text table to Env.Out. The
// cmd/c2bench binary and the repository's testing.B benchmarks are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"c2knn"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// Env carries the execution parameters shared by all runners. The zero
// value is usable: defaults are applied on first use.
type Env struct {
	// Scale multiplies the paper's dataset sizes (1 = paper scale).
	// Default 0.05, which keeps the full suite laptop-sized.
	Scale float64
	// Workers sizes every worker pool (default GOMAXPROCS).
	Workers int
	// K is the neighborhood size (default 30, §IV-C).
	K int
	// GFBits is the GoldFinger width (default 1024, §IV-C).
	GFBits int
	// Folds is the cross-validation fold count for Table III
	// (default 5, §IV-D).
	Folds int
	// Seed drives every random component.
	Seed int64
	// MinUsers floors per-dataset populations (default 4000): below a
	// few thousand users every algorithm is candidate-starved and the
	// comparison stops being informative. Tests lower it.
	MinUsers int
	// Out receives the rendered tables; nil discards them.
	Out io.Writer

	mu    sync.Mutex
	cache map[string]*Prepared
}

func (e *Env) setDefaults() {
	if e.Scale == 0 {
		e.Scale = 0.05
	}
	if e.Workers == 0 {
		e.Workers = runtime.GOMAXPROCS(0)
	}
	if e.K == 0 {
		e.K = 30
	}
	if e.GFBits == 0 {
		e.GFBits = goldfinger.DefaultBits
	}
	if e.Folds == 0 {
		e.Folds = 5
	}
	if e.Seed == 0 {
		e.Seed = 42
	}
	if e.MinUsers == 0 {
		e.MinUsers = minBenchUsers
	}
	if e.Out == nil {
		e.Out = io.Discard
	}
	if e.cache == nil {
		e.cache = make(map[string]*Prepared)
	}
}

// buildOptions is the Env's K, Workers and Seed as c2knn build options.
func (e *Env) buildOptions() c2knn.BuildOptions {
	return c2knn.BuildOptions{K: e.K, Workers: e.Workers, Seed: e.Seed}
}

// c2Options is buildOptions with the named dataset's C2Params.
func (e *Env) c2Options(name string) c2knn.BuildOptions {
	o := e.buildOptions()
	o.B, o.T, o.MaxClusterSize = e.C2Params(name)
	return o
}

// printf writes a formatted line to the report writer.
func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// Prepared bundles a generated dataset with the similarity providers and
// the exact reference graph shared across runs.
type Prepared struct {
	Cfg  synth.Config
	Data *dataset.Dataset
	Raw  *similarity.Jaccard
	GF   *goldfinger.Set

	exactOnce sync.Once
	exact     *knng.Graph
	exactTime time.Duration
	env       *Env
}

// Prepare generates (once per Env) the named preset dataset at the Env's
// scale with its raw-Jaccard and GoldFinger providers.
func (e *Env) Prepare(name string) (*Prepared, error) {
	e.setDefaults()
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.cache[name]; ok {
		return p, nil
	}
	cfg, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset preset %q", name)
	}
	cfg = cfg.Scale(e.EffScale(name))
	cfg.Seed += e.Seed
	d := synth.Generate(cfg)
	gf, err := goldfinger.New(d, e.GFBits, uint32(e.Seed)+0x60fd)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Cfg: cfg, Data: d, Raw: similarity.NewJaccard(d), GF: gf, env: e}
	e.cache[name] = p
	return p, nil
}

// MustPrepare is Prepare, panicking on error; for benchmarks.
func (e *Env) MustPrepare(name string) *Prepared {
	p, err := e.Prepare(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Exact returns the exact KNN graph of the dataset under raw Jaccard,
// computing it on first use (brute force) and caching it. This is the
// quality denominator of Eq. (2) and the recommendation reference of
// Table III.
func (p *Prepared) Exact() *knng.Graph {
	p.exactOnce.Do(func() {
		start := time.Now()
		p.exact = c2knn.BuildBruteForce(p.Data, p.Raw, p.env.buildOptions())
		p.exactTime = time.Since(start)
	})
	return p.exact
}

// ExactTime returns how long the exact graph took to build (zero if it
// has not been requested).
func (p *Prepared) ExactTime() time.Duration { return p.exactTime }

// C2Params returns the per-dataset C² parameters of §IV-C: t=8 except
// DBLP and GW (t=15); N=2000 except ml20M (N=4000); b=4096. N is scaled
// with the dataset so the splitting regime matches the paper's at any
// scale; b is kept at the paper's value because quality improves with b
// regardless of population (Fig. 6) — see EXPERIMENTS.md for the
// scale-artifact discussion.
func (e *Env) C2Params(name string) (b, t, n int) {
	e.setDefaults()
	b = 4096
	t = 8
	n = 2000
	switch name {
	case "DBLP", "GW":
		t = 15
	case "ml20M":
		n = 4000
	}
	return b, t, scaleN(n, e.EffScale(name))
}

// minBenchUsers is the default MinUsers floor (see Env.MinUsers).
const minBenchUsers = 4000

// EffScale returns the effective scale factor used for the named preset:
// Scale, raised so the generated population reaches MinUsers (capped
// at 1). Unknown names fall back to Scale.
func (e *Env) EffScale(name string) float64 {
	e.setDefaults()
	if e.Scale >= 1 {
		return e.Scale
	}
	cfg, ok := synth.ByName(name)
	if !ok {
		return e.Scale
	}
	floor := float64(e.MinUsers) / float64(cfg.Users)
	if floor > 1 {
		floor = 1
	}
	if e.Scale < floor {
		return floor
	}
	return e.Scale
}

// ScaledN scales a paper-sized cluster threshold by the Env's global
// scale, with a floor that keeps clusters meaningful at tiny scales. The
// sensitivity figures (ml10M, AM) use this; Table II uses the
// per-dataset C2Params.
func (e *Env) ScaledN(n int) int {
	e.setDefaults()
	return scaleN(n, e.Scale)
}

func scaleN(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	s := int(math.Round(float64(n) * scale))
	if s < 64 {
		s = 64
	}
	return s
}

// AllDatasets lists the six Table I presets in the paper's order.
func AllDatasets() []string {
	return []string{"ml1M", "ml10M", "ml20M", "AM", "DBLP", "GW"}
}

// SensitivityDatasets lists the two presets used by the sensitivity
// analysis of §VI (dense vs sparse).
func SensitivityDatasets() []string { return []string{"ml10M", "AM"} }
