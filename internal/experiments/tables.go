package experiments

import (
	"fmt"
	"time"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/recommend"
	"c2knn/internal/similarity"
)

// AlgoRow is one line of a Table II-style comparison.
type AlgoRow struct {
	Dataset string
	Algo    string
	Time    time.Duration
	Quality float64
	Sims    int64 // similarity computations performed
}

// Table1 regenerates the dataset-description table: it generates the six
// calibrated datasets and reports their statistics next to the paper's
// targets.
func (e *Env) Table1() ([]dataset.Stats, error) {
	e.setDefaults()
	e.printf("Table I: datasets (scale %.3g)\n", e.Scale)
	var out []dataset.Stats
	for _, name := range AllDatasets() {
		p, err := e.Prepare(name)
		if err != nil {
			return nil, err
		}
		st := p.Data.ComputeStats()
		out = append(out, st)
		e.printf("  %s\n", st)
	}
	return out, nil
}

// runAlgo executes one named algorithm on a prepared dataset using the
// given provider and returns its row (quality filled in by the caller).
func (e *Env) runAlgo(p *Prepared, algo string, prov similarity.Provider) (*knng.Graph, AlgoRow) {
	counting := similarity.NewCounting(prov)
	start := time.Now()
	var g *knng.Graph
	switch algo {
	case "Hyrec":
		g = c2knn.BuildHyrec(p.Data, counting, e.buildOptions())
	case "NNDescent":
		g = c2knn.BuildNNDescent(p.Data, counting, e.buildOptions())
	case "LSH":
		g = c2knn.BuildLSH(p.Data, counting, e.buildOptions())
	case "C2":
		g, _ = c2knn.BuildC2(p.Data, counting, e.c2Options(p.Cfg.Name))
	default:
		panic("experiments: unknown algorithm " + algo)
	}
	elapsed := time.Since(start)
	return g, AlgoRow{Dataset: p.Cfg.Name, Algo: algo, Time: elapsed, Sims: counting.Count()}
}

// Table2 reproduces the paper's headline comparison (Table II, Figs. 4
// and 5): computation time and KNN quality of Hyrec, NNDescent, LSH and
// C² on the given datasets (all six when names is nil). Every algorithm
// uses GoldFinger estimates, as in the paper; quality is measured against
// the exact raw-Jaccard graph.
func (e *Env) Table2(names []string) ([]AlgoRow, error) {
	e.setDefaults()
	if names == nil {
		names = AllDatasets()
	}
	e.printf("Table II: computation time and KNN quality (scale %.3g, k=%d, GoldFinger %d bits)\n",
		e.Scale, e.K, e.GFBits)
	var rows []AlgoRow
	for _, name := range names {
		p, err := e.Prepare(name)
		if err != nil {
			return nil, err
		}
		exact := p.Exact()
		var best AlgoRow
		var dsRows []AlgoRow
		for _, algo := range []string{"Hyrec", "NNDescent", "LSH", "C2"} {
			g, row := e.runAlgo(p, algo, p.GF)
			row.Quality = knng.Quality(g, exact, p.Raw)
			dsRows = append(dsRows, row)
			if algo != "C2" && (best.Algo == "" || row.Time < best.Time) {
				best = row
			}
		}
		for _, row := range dsRows {
			marker := ""
			if row.Algo == best.Algo {
				marker = " (best baseline)"
			}
			if row.Algo == "C2" {
				gain := 100 * (1 - row.Time.Seconds()/best.Time.Seconds())
				marker = fmt.Sprintf("  gain=%.2f%%  speedup=x%.2f  Δq=%+.2f",
					gain, best.Time.Seconds()/row.Time.Seconds(), row.Quality-best.Quality)
			}
			e.printf("  %-6s %-10s time=%-12v quality=%.3f sims=%-10d%s\n",
				row.Dataset, row.Algo, row.Time.Round(time.Millisecond), row.Quality, row.Sims, marker)
		}
		rows = append(rows, dsRows...)
	}
	return rows, nil
}

// RecRow is one line of Table III: recommendation recall with the exact
// brute-force graph vs the C² graph.
type RecRow struct {
	Dataset    string
	BruteForce float64
	C2         float64
	Delta      float64
}

// Table3 reproduces the recommendation experiment (§V-B, Table III):
// 30 items are recommended to every user with user-based collaborative
// filtering on (a) the exact graph and (b) the C² graph, under k-fold
// cross-validation; the reported recalls are fold averages.
func (e *Env) Table3(names []string) ([]RecRow, error) {
	e.setDefaults()
	if names == nil {
		names = AllDatasets()
	}
	const nRec = 30
	e.printf("Table III: recommendation recall@%d (%d-fold CV, scale %.3g)\n", nRec, e.Folds, e.Scale)
	var rows []RecRow
	for _, name := range names {
		p, err := e.Prepare(name)
		if err != nil {
			return nil, err
		}
		folds := recommend.Split(p.Data, e.Folds, e.Seed)
		var bfSum, c2Sum float64
		for _, f := range folds {
			gf, err := goldfinger.New(f.Train, e.GFBits, uint32(e.Seed)+0x60fd)
			if err != nil {
				return nil, err
			}
			exact := c2knn.BuildBruteForce(f.Train, similarity.NewJaccard(f.Train), e.buildOptions())
			g, _ := c2knn.BuildC2(f.Train, gf, e.c2Options(name))
			bfSum += recommend.EvalRecall(f, exact, nRec, e.Workers)
			c2Sum += recommend.EvalRecall(f, g, nRec, e.Workers)
		}
		row := RecRow{
			Dataset:    name,
			BruteForce: bfSum / float64(len(folds)),
			C2:         c2Sum / float64(len(folds)),
		}
		row.Delta = row.C2 - row.BruteForce
		rows = append(rows, row)
		e.printf("  %-6s bruteforce=%.3f C2=%.3f Δ=%+.3f\n", row.Dataset, row.BruteForce, row.C2, row.Delta)
	}
	return rows, nil
}

// Table4 reproduces the FastRandomHash ablation (§V-C, Table IV): C² with
// FRH clustering vs C² with MinHash clustering on ml10M and AM. Gains are
// relative to the best baseline of Table II, so the method recomputes the
// baselines for the two datasets.
func (e *Env) Table4() ([]AlgoRow, error) {
	return e.variantTable("Table IV: FastRandomHash vs MinHash inside C2",
		[]variant{
			{"C2/MinHash", func(p *Prepared) (*knng.Graph, int64) {
				counting := similarity.NewCounting(p.GF)
				g, _ := core.Build(p.Data, counting, core.Options{
					K: e.K, T: 8, UseMinHash: true, Workers: e.Workers, Seed: e.Seed,
				})
				return g, counting.Count()
			}},
			{"C2/FRH", func(p *Prepared) (*knng.Graph, int64) {
				counting := similarity.NewCounting(p.GF)
				b, t, n := e.C2Params(p.Cfg.Name)
				g, _ := core.Build(p.Data, counting, core.Options{
					K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed,
				})
				return g, counting.Count()
			}},
		})
}

// Table5 reproduces the GoldFinger ablation (§V-D, Table V): C² on raw
// Jaccard vs C² on GoldFinger estimates, on ml10M and AM.
func (e *Env) Table5() ([]AlgoRow, error) {
	return e.variantTable("Table V: raw data vs GoldFinger inside C2",
		[]variant{
			{"C2/raw", func(p *Prepared) (*knng.Graph, int64) {
				counting := similarity.NewCounting(p.Raw)
				b, t, n := e.C2Params(p.Cfg.Name)
				g, _ := core.Build(p.Data, counting, core.Options{
					K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed,
				})
				return g, counting.Count()
			}},
			{"C2/GoldFinger", func(p *Prepared) (*knng.Graph, int64) {
				counting := similarity.NewCounting(p.GF)
				b, t, n := e.C2Params(p.Cfg.Name)
				g, _ := core.Build(p.Data, counting, core.Options{
					K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed,
				})
				return g, counting.Count()
			}},
		})
}

// variant names one C² configuration of an ablation table.
type variant struct {
	name string
	run  func(p *Prepared) (*knng.Graph, int64)
}

func (e *Env) variantTable(title string, variants []variant) ([]AlgoRow, error) {
	e.setDefaults()
	e.printf("%s (scale %.3g)\n", title, e.Scale)
	var rows []AlgoRow
	for _, name := range SensitivityDatasets() {
		p, err := e.Prepare(name)
		if err != nil {
			return nil, err
		}
		exact := p.Exact()
		for _, v := range variants {
			start := time.Now()
			g, sims := v.run(p)
			row := AlgoRow{
				Dataset: name, Algo: v.name,
				Time: time.Since(start), Sims: sims,
				Quality: knng.Quality(g, exact, p.Raw),
			}
			rows = append(rows, row)
			e.printf("  %-6s %-14s time=%-12v quality=%.3f sims=%d\n",
				row.Dataset, row.Algo, row.Time.Round(time.Millisecond), row.Quality, row.Sims)
		}
	}
	return rows, nil
}
