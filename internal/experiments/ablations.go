package experiments

import (
	"fmt"
	"time"

	"c2knn/internal/core"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/similarity"
)

// AblationRow is one line of the design-choice ablation study: a C²
// variant with exactly one mechanism changed from the paper's defaults.
type AblationRow struct {
	Dataset string
	Variant string
	Time    time.Duration
	Quality float64
	Sims    int64
}

// Ablations exercises the design choices DESIGN.md calls out, on the
// dense sensitivity dataset (ml10M) where each mechanism matters most:
// recursive splitting on/off, largest-first vs FIFO scheduling, the
// hybrid local solver vs forced brute force / forced Hyrec, and a
// GoldFinger width sweep.
func (e *Env) Ablations() ([]AblationRow, error) {
	e.setDefaults()
	e.printf("Ablations: C2 design choices on ml10M (scale %.3g)\n", e.Scale)
	p, err := e.Prepare("ml10M")
	if err != nil {
		return nil, err
	}
	exact := p.Exact()
	b, t, n := e.C2Params("ml10M")
	base := core.Options{K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed}

	type ablation struct {
		name string
		opts func() core.Options
		prov func() (similarity.Provider, error)
	}
	gfProv := func() (similarity.Provider, error) { return p.GF, nil }
	cases := []ablation{
		{"default", func() core.Options { return base }, gfProv},
		{"no-splitting", func() core.Options { o := base; o.MaxClusterSize = -1; return o }, gfProv},
		{"fifo-scheduling", func() core.Options { o := base; o.Scheduling = core.ScheduleFIFO; return o }, gfProv},
		{"force-bruteforce", func() core.Options { o := base; o.LocalSolver = core.SolverBruteForce; return o }, gfProv},
		{"force-hyrec", func() core.Options { o := base; o.LocalSolver = core.SolverHyrec; return o }, gfProv},
	}
	for _, bits := range []int{64, 256, 4096} {
		bits := bits
		cases = append(cases, ablation{
			name: fmt.Sprintf("goldfinger-%db", bits),
			opts: func() core.Options { return base },
			prov: func() (similarity.Provider, error) {
				return goldfinger.New(p.Data, bits, uint32(e.Seed)+0x60fd)
			},
		})
	}

	var rows []AblationRow
	for _, c := range cases {
		prov, err := c.prov()
		if err != nil {
			return nil, err
		}
		counting := similarity.NewCounting(prov)
		start := time.Now()
		g, _ := core.Build(p.Data, counting, c.opts())
		row := AblationRow{
			Dataset: "ml10M", Variant: c.name,
			Time:    time.Since(start),
			Quality: knng.Quality(g, exact, p.Raw),
			Sims:    counting.Count(),
		}
		rows = append(rows, row)
		e.printf("  %-18s time=%-12v quality=%.3f sims=%d\n",
			row.Variant, row.Time.Round(time.Millisecond), row.Quality, row.Sims)
	}
	return rows, nil
}
