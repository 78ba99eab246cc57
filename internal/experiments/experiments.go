// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.4 Figures 4 and 5 plus the overhead and speedup claims,
// and the §5 Tables 2 and 3). The same code backs the root bench_test.go
// benchmarks and the cmd/madbench harness, so numbers in EXPERIMENTS.md
// are reproducible from either entry point.
//
// Substitution note (README.md, "Benchmark"): the paper ran 10M rows on a
// 24-core Greenplum cluster where every segment owns a processor. This
// harness runs scaled row counts and reports, alongside wall time, the
// simulated cluster time (`engine.RunSimulated`): each segment is timed in
// isolation, through the fold helper every statement's scan uses, and the
// critical path is the slowest segment plus the merge/final tail.
// On a host with fewer cores than segments, wall-clock speedup saturates
// at the core count while the simulated metric reproduces the cluster's
// near-linear speedup.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"madlib/internal/core"
	"madlib/internal/crf"
	"madlib/internal/datagen"
	"madlib/internal/engine"
	"madlib/internal/linregr"
	"madlib/internal/sgd"
	"madlib/internal/text"

	// Link every method package so Table1() sees the complete registry.
	_ "madlib/internal/assoc"
	_ "madlib/internal/bayes"
	_ "madlib/internal/bootstrap"
	_ "madlib/internal/dtree"
	_ "madlib/internal/kmeans"
	_ "madlib/internal/lda"
	_ "madlib/internal/logregr"
	_ "madlib/internal/optim"
	_ "madlib/internal/profile"
	_ "madlib/internal/quantile"
	_ "madlib/internal/sketch"
	_ "madlib/internal/sparse"
	_ "madlib/internal/svdmf"
	_ "madlib/internal/svm"
)

// Figure4Config scales the linear-regression timing sweep.
type Figure4Config struct {
	// Rows per dataset (paper: 10,000,000; default here: 20,000).
	Rows int
	// Segments lists segment counts (paper: 6, 12, 18, 24).
	Segments []int
	// Vars lists independent-variable counts (paper: 10..320).
	Vars []int
	// Versions lists implementations (paper: v0.3, v0.2.1beta, v0.1alpha;
	// default: those three plus this repo's batch generation).
	Versions []linregr.Version
	// Trials per cell; the median is reported (default 3).
	Trials int
	// Seed drives the synthetic design matrix.
	Seed int64
}

// Defaults fills in the paper's grid with scaled rows.
func (c *Figure4Config) Defaults() {
	if c.Rows == 0 {
		c.Rows = 20000
	}
	if c.Segments == nil {
		c.Segments = []int{6, 12, 18, 24}
	}
	if c.Vars == nil {
		c.Vars = []int{10, 20, 40, 80, 160, 320}
	}
	if c.Versions == nil {
		c.Versions = figure4Versions
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// figure4Versions are Figure 4's columns: the paper's three historical
// row-at-a-time generations, then the batch generation every statement
// runs today.
var figure4Versions = []linregr.Version{linregr.V03, linregr.V021Beta, linregr.V01Alpha, linregr.VBatch}

// Figure4Row is one cell of the Figure 4 table.
type Figure4Row struct {
	Segments int
	Vars     int
	Rows     int
	Version  linregr.Version
	// SimTime is the simulated cluster time (critical path).
	SimTime time.Duration
	// WallTime is the host wall-clock time of the same query run with
	// true goroutine parallelism.
	WallTime time.Duration
}

// Figure4 runs the sweep. Datasets are generated once per variable count
// and reloaded per segment count.
func Figure4(cfg Figure4Config) ([]Figure4Row, error) {
	cfg.Defaults()
	var out []Figure4Row
	for _, k := range cfg.Vars {
		gen := datagen.NewRegression(cfg.Seed+int64(k), cfg.Rows, k, 0.5)
		for _, segs := range cfg.Segments {
			db := engine.Open(segs)
			tbl, err := gen.LoadRegression(db, "data")
			if err != nil {
				return nil, err
			}
			for _, v := range cfg.Versions {
				agg, err := linregr.BuildAggregate(tbl, "y", "x", linregr.WithVersion(v))
				if err != nil {
					return nil, err
				}
				// Collect garbage between cells so allocation-heavy
				// versions (v0.2.1beta's per-row temporaries) do not tax
				// the next cell's measurement.
				runtime.GC()
				if _, _, err := db.RunSimulated(tbl, agg); err != nil {
					return nil, err // warm-up, discard timing
				}
				sim, err := simulatedCriticalPath(db, tbl, agg, cfg.Trials)
				if err != nil {
					return nil, err
				}
				wall := medianTimeDur(cfg.Trials, func() (time.Duration, error) {
					_, qs, err := db.RunInstrumented(tbl, agg)
					return qs.WallTime, err
				})
				out = append(out, Figure4Row{
					Segments: segs, Vars: k, Rows: cfg.Rows, Version: v,
					SimTime: sim, WallTime: wall,
				})
			}
		}
	}
	return out, nil
}

// FormatFigure4 renders the rows in the layout of the paper's Figure 4:
// one line per (segments, vars) with a column per version.
func FormatFigure4(rows []Figure4Row) string {
	cell := map[string]time.Duration{}
	segSet := map[int]bool{}
	varSet := map[int]bool{}
	rowCount := 0
	for _, r := range rows {
		cell[fmt.Sprintf("%d/%d/%v", r.Segments, r.Vars, r.Version)] = r.SimTime
		segSet[r.Segments] = true
		varSet[r.Vars] = true
		rowCount = r.Rows
	}
	segs := sortedKeys(segSet)
	vars := sortedKeys(varSet)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: linregr simulated-cluster execution times (%d rows)\n", rowCount)
	fmt.Fprintf(&b, "%-10s %-10s", "# segments", "# vars")
	for _, v := range figure4Versions {
		fmt.Fprintf(&b, " %12s", v)
	}
	b.WriteByte('\n')
	for _, s := range segs {
		for _, k := range vars {
			fmt.Fprintf(&b, "%-10d %-10d", s, k)
			for _, v := range figure4Versions {
				d, ok := cell[fmt.Sprintf("%d/%d/%v", s, k, v)]
				if !ok {
					fmt.Fprintf(&b, " %12s", "-")
					continue
				}
				fmt.Fprintf(&b, " %12s", formatDur(d))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Figure5 returns the Figure 5 series (time vs. #vars, one series per
// segment count) for the default generation: the batch transition, timed
// through the fold helper a madlib.linregr statement runs.
func Figure5(cfg Figure4Config) ([]Figure4Row, error) {
	cfg.Defaults()
	cfg.Versions = []linregr.Version{linregr.VBatch}
	return Figure4(cfg)
}

// FormatFigure5 renders the series as aligned columns (vars × segments).
func FormatFigure5(rows []Figure4Row) string {
	cell := map[string]time.Duration{}
	segSet := map[int]bool{}
	varSet := map[int]bool{}
	for _, r := range rows {
		cell[fmt.Sprintf("%d/%d", r.Segments, r.Vars)] = r.SimTime
		segSet[r.Segments] = true
		varSet[r.Vars] = true
	}
	segs := sortedKeys(segSet)
	vars := sortedKeys(varSet)
	var b strings.Builder
	b.WriteString("Figure 5: linregr (default batch generation, engine fold helper) simulated time vs #vars per segment count\n")
	fmt.Fprintf(&b, "%-10s", "# vars")
	for _, s := range segs {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d segs", s))
	}
	b.WriteByte('\n')
	for _, k := range vars {
		fmt.Fprintf(&b, "%-10d", k)
		for _, s := range segs {
			fmt.Fprintf(&b, " %12s", formatDur(cell[fmt.Sprintf("%d/%d", s, k)]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OverheadResult quantifies §4.4's claim (a): fixed per-query overhead is
// a tiny fraction of bulk work.
type OverheadResult struct {
	// EmptyQuery is the cost of an aggregate over an empty table (pure
	// engine overhead).
	EmptyQuery time.Duration
	// BulkQuery is the same aggregate over Rows rows.
	BulkQuery time.Duration
	// Rows is the bulk row count.
	Rows int
	// OverheadFraction is EmptyQuery / BulkQuery.
	OverheadFraction float64
}

// Overhead measures the fixed query overhead against a k=10 linregr over
// rows rows on 24 segments.
func Overhead(rows int) (*OverheadResult, error) {
	if rows == 0 {
		rows = 100000
	}
	db := engine.Open(24)
	empty, err := db.CreateTable("empty", engine.Schema{
		{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
	})
	if err != nil {
		return nil, err
	}
	if err := empty.Insert(0.0, make([]float64, 10)); err != nil {
		return nil, err // one row so the final function has data
	}
	gen := datagen.NewRegression(7, rows, 10, 0.5)
	bulk, err := gen.LoadRegression(db, "bulk")
	if err != nil {
		return nil, err
	}
	agg, err := linregr.BuildAggregate(bulk, "y", "x")
	if err != nil {
		return nil, err
	}
	aggEmpty, err := linregr.BuildAggregate(empty, "y", "x")
	if err != nil {
		return nil, err
	}
	// Median of several trials for stability.
	emptyT := medianTime(9, func() error {
		_, _, err := db.RunInstrumented(empty, aggEmpty)
		return err
	})
	bulkT := medianTime(3, func() error {
		_, _, err := db.RunInstrumented(bulk, agg)
		return err
	})
	return &OverheadResult{
		EmptyQuery:       emptyT,
		BulkQuery:        bulkT,
		Rows:             rows,
		OverheadFraction: float64(emptyT) / float64(bulkT),
	}, nil
}

// SpeedupRow is one point of the §4.4 linear-speedup claim.
type SpeedupRow struct {
	Segments int
	SimTime  time.Duration
	// Speedup is SimTime(minSegments) / SimTime(segments), ideally
	// segments/minSegments.
	Speedup float64
	// Ideal is segments / minSegments.
	Ideal float64
}

// Speedup sweeps segment counts at fixed data size (default batch
// generation through the engine's shared fold helper, k=80).
func Speedup(rows int, segments []int) ([]SpeedupRow, error) {
	if rows == 0 {
		rows = 40000
	}
	if segments == nil {
		segments = []int{6, 12, 18, 24}
	}
	gen := datagen.NewRegression(11, rows, 80, 0.5)
	var out []SpeedupRow
	for _, segs := range segments {
		db := engine.Open(segs)
		tbl, err := gen.LoadRegression(db, "data")
		if err != nil {
			return nil, err
		}
		agg, err := linregr.BuildAggregate(tbl, "y", "x")
		if err != nil {
			return nil, err
		}
		if _, _, err := db.RunSimulated(tbl, agg); err != nil {
			return nil, err // warm-up
		}
		best, err := simulatedCriticalPath(db, tbl, agg, 5)
		if err != nil {
			return nil, err
		}
		out = append(out, SpeedupRow{Segments: segs, SimTime: best})
	}
	base := out[0]
	for i := range out {
		out[i].Speedup = float64(base.SimTime) / float64(out[i].SimTime)
		out[i].Ideal = float64(out[i].Segments) / float64(base.Segments)
	}
	return out, nil
}

// FormatSpeedup renders the speedup table.
func FormatSpeedup(rows []SpeedupRow) string {
	var b strings.Builder
	b.WriteString("Parallel speedup (linregr default batch generation via the engine fold helper, k=80, simulated cluster time)\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %10s\n", "# segments", "time", "speedup", "ideal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %12s %10.2f %10.2f\n", r.Segments, formatDur(r.SimTime), r.Speedup, r.Ideal)
	}
	return b.String()
}

// Table1 renders the method inventory from the registry.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: method inventory\n")
	cur := core.Category("")
	for _, m := range core.Methods() {
		if m.Category != cur {
			cur = m.Category
			fmt.Fprintf(&b, "%s\n", cur)
		}
		fmt.Fprintf(&b, "    %-28s (%s)\n", m.Title, m.Name)
	}
	return b.String()
}

// Table2Row is one model's training summary for the §5.1 demonstration.
type Table2Row struct {
	Model       string
	Objective   string
	InitialLoss float64
	FinalLoss   float64
	Passes      int
}

// Table2 trains all six Table-2 models on matched synthetic data and
// reports loss trajectories. The CRF row trains through the same SGD
// framework via internal/crf.
func Table2(rows int) ([]Table2Row, error) {
	if rows == 0 {
		rows = 5000
	}
	db := engine.Open(4)
	out := make([]Table2Row, 0, 6)

	reg := datagen.NewRegression(21, rows, 5, 0.2)
	regT, err := reg.LoadRegression(db, "t2_reg")
	if err != nil {
		return nil, err
	}
	addSGDRow := func(name, objective string, table *engine.Table, extract sgd.Extractor, model sgd.Model, opts sgd.Options) error {
		res, err := sgd.Train(db, table, extract, model, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, Table2Row{
			Model: name, Objective: objective,
			InitialLoss: res.LossHistory[0],
			FinalLoss:   res.LossHistory[len(res.LossHistory)-1],
			Passes:      res.Passes,
		})
		return nil
	}
	if err := addSGDRow("Least Squares", "Σ(xᵀu−y)²", regT, sgd.ExtractLabeled(0, 1),
		sgd.LeastSquares{K: 5}, sgd.Options{StepSize: 0.05, MaxPasses: 30}); err != nil {
		return nil, err
	}
	if err := addSGDRow("Lasso", "Σ(xᵀu−y)²+µ‖x‖₁", regT, sgd.ExtractLabeled(0, 1),
		sgd.Lasso{K: 5, Mu: 0.5}, sgd.Options{StepSize: 0.05, MaxPasses: 30}); err != nil {
		return nil, err
	}

	logGen := datagen.NewLogistic(22, rows, 5)
	logT, err := db.CreateTable("t2_log", engine.Schema{
		{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
	})
	if err != nil {
		return nil, err
	}
	for i := range logGen.X {
		y := -1.0
		if logGen.Y[i] == 1 {
			y = 1
		}
		if err := logT.Insert(y, logGen.X[i]); err != nil {
			return nil, err
		}
	}
	if err := addSGDRow("Logistic Regression", "Σlog(1+exp(−y·xᵀu))", logT, sgd.ExtractLabeled(0, 1),
		sgd.Logistic{K: 5}, sgd.Options{StepSize: 0.2, MaxPasses: 30}); err != nil {
		return nil, err
	}

	mar := datagen.NewMargin(23, rows, 5, 0.4)
	marT, err := mar.Load(db, "t2_svm")
	if err != nil {
		return nil, err
	}
	if err := addSGDRow("Classification (SVM)", "Σ(1−y·xᵀu)₊", marT, sgd.ExtractLabeled(0, 1),
		sgd.HingeSVM{K: 5}, sgd.Options{StepSize: 0.2, MaxPasses: 30, L2: 1e-4}); err != nil {
		return nil, err
	}

	rat := datagen.NewRatings(24, 40, 30, 3, rows, 0.05)
	ratT, err := db.CreateTable("t2_rat", engine.Schema{
		{Name: "i", Kind: engine.Int}, {Name: "j", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
	})
	if err != nil {
		return nil, err
	}
	for _, e := range rat.Entries {
		if err := ratT.Insert(int64(e.I), int64(e.J), e.Value); err != nil {
			return nil, err
		}
	}
	lr := sgd.LowRank{Rows: 40, Cols: 30, Rank: 3, Mu: 1e-4}
	res, err := sgd.TrainLowRank(db, ratT, sgd.ExtractRating(0, 1, 2), lr, sgd.Options{StepSize: 0.05, MaxPasses: 60})
	if err != nil {
		return nil, err
	}
	out = append(out, Table2Row{
		Model: "Recommendation", Objective: "Σ(LᵢᵀRⱼ−Mᵢⱼ)²+µ‖L,R‖²F",
		InitialLoss: res.LossHistory[0], FinalLoss: res.LossHistory[len(res.LossHistory)-1],
		Passes: res.Passes,
	})

	// CRF labeling: train on the synthetic tagged corpus, reporting the
	// per-sentence negative log-likelihood trajectory via sgd inside crf.
	corpusRaw := datagen.NewCorpus(25, 200, 7)
	corpus := make([]crf.Sentence, len(corpusRaw))
	for i, sent := range corpusRaw {
		s := make(crf.Sentence, len(sent))
		for j, tok := range sent {
			s[j] = crf.Token{Word: tok.Word, Tag: tok.Tag}
		}
		corpus[i] = s
	}
	crfDB := engine.Open(4)
	crfT, err := crf.LoadCorpus(crfDB, "t2_crf", corpus)
	if err != nil {
		return nil, err
	}
	model, err := crf.TrainTable(crfDB, crfT, "words", "tags", crf.TrainOptions{MaxPasses: 15})
	if err != nil {
		return nil, err
	}
	// Before/after loss: mean −log p over the corpus at zero vs. trained.
	zeroLL, trainedLL := 0.0, 0.0
	for _, sent := range corpus {
		words := make([]string, len(sent))
		tags := make([]string, len(sent))
		for i, tok := range sent {
			words[i] = tok.Word
			tags[i] = tok.Tag
		}
		ll, err := model.LogLikelihood(words, tags)
		if err != nil {
			return nil, err
		}
		trainedLL += -ll
		// Uniform model loss: |sent| tags drawn uniformly.
		zeroLL += float64(len(sent)) * logOf(len(model.Tags))
	}
	out = append(out, Table2Row{
		Model: "Labeling (CRF)", Objective: "Σₖ[Σⱼ xⱼFⱼ(yₖ,zₖ)−logZ(zₖ)]",
		InitialLoss: zeroLL / float64(len(corpus)), FinalLoss: trainedLL / float64(len(corpus)),
		Passes: 15,
	})
	return out, nil
}

func logOf(n int) float64 { return math.Log(float64(n)) }

// FormatTable2 renders the model summary.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: models trained through the SGD abstraction\n")
	fmt.Fprintf(&b, "%-22s %-26s %12s %12s %7s\n", "Application", "Objective", "initial", "final", "passes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-26s %12.4f %12.4f %7d\n", r.Model, r.Objective, r.InitialLoss, r.FinalLoss, r.Passes)
	}
	return b.String()
}

// Table3Result reports the text-analysis method × task matrix of Table 3.
type Table3Result struct {
	// FeatureCount is the trained CRF feature-space size (feature
	// extraction works).
	FeatureCount int
	// ViterbiPOSAccuracy is token accuracy of Viterbi decoding on held-out
	// synthetic POS data.
	ViterbiPOSAccuracy float64
	// ViterbiNERAccuracy is the same for the dictionary-driven NER corpus.
	ViterbiNERAccuracy float64
	// MCMCMaxMarginalGap is the largest |Gibbs − forward-backward|
	// marginal discrepancy on a probe sentence.
	MCMCMaxMarginalGap float64
	// MHMaxMarginalGap is the Metropolis-Hastings counterpart.
	MHMaxMarginalGap float64
	// ERRecall is the fraction of misspelled mentions whose top trigram
	// match is the correct entity.
	ERRecall float64
}

// Table3 exercises every (method, task) pair the paper marks.
func Table3() (*Table3Result, error) {
	res := &Table3Result{}

	// POS: train on the synthetic grammar corpus.
	posTrain := convertCorpus(datagen.NewCorpus(31, 250, 8))
	posTest := convertCorpus(datagen.NewCorpus(32, 60, 8))
	posModel, err := crf.Train(posTrain, crf.TrainOptions{MaxPasses: 20})
	if err != nil {
		return nil, err
	}
	res.FeatureCount = posModel.FeatureCount()
	res.ViterbiPOSAccuracy = tagAccuracy(posModel, posTest)

	// MCMC vs exact marginals on a probe sentence.
	probe := []string{"the", "fast", "analyst", "builds", "a", "model"}
	exact := posModel.Marginals(probe)
	gibbs := posModel.Gibbs(probe, crf.MCMCOptions{Sweeps: 4000, BurnIn: 500, Seed: 1})
	mh := posModel.MetropolisHastings(probe, crf.MCMCOptions{Sweeps: 8000, BurnIn: 1000, Seed: 2})
	for t := range exact {
		for b := range exact[t] {
			if d := abs(gibbs.Marginals[t][b] - exact[t][b]); d > res.MCMCMaxMarginalGap {
				res.MCMCMaxMarginalGap = d
			}
			if d := abs(mh.Marginals[t][b] - exact[t][b]); d > res.MHMaxMarginalGap {
				res.MHMaxMarginalGap = d
			}
		}
	}

	// NER: dictionary feature corpus.
	names := []string{"alice", "bob", "carol", "dave", "erin"}
	var nerTrain, nerTest []crf.Sentence
	for i := 0; i < 120; i++ {
		name := names[i%len(names)]
		s := crf.Sentence{
			{Word: "the", Tag: "O"}, {Word: "analyst", Tag: "O"},
			{Word: name, Tag: "PER"}, {Word: "runs", Tag: "O"},
		}
		if i%4 == 0 {
			nerTest = append(nerTest, s)
		} else {
			nerTrain = append(nerTrain, s)
		}
	}
	ex, err := crf.NewExtractor(crf.ExtractorOptions{
		Dictionaries: map[string][]string{"names": names},
	})
	if err != nil {
		return nil, err
	}
	nerModel, err := crf.Train(nerTrain, crf.TrainOptions{Extractor: ex, MaxPasses: 15})
	if err != nil {
		return nil, err
	}
	res.ViterbiNERAccuracy = tagAccuracy(nerModel, nerTest)

	// ER: approximate string matching over misspelled mentions.
	canonical, mentions := datagen.Names(33, 20)
	ix := text.NewIndex()
	for i, n := range canonical {
		ix.Add(i, n)
	}
	hits := 0
	for mi, mention := range mentions {
		truth := mi / 20
		if r := ix.Search(mention, 0.3); len(r) > 0 && r[0].ID == truth {
			hits++
		}
	}
	res.ERRecall = float64(hits) / float64(len(mentions))
	return res, nil
}

// FormatTable3 renders the matrix summary.
func FormatTable3(r *Table3Result) string {
	var b strings.Builder
	b.WriteString("Table 3: statistical text analysis methods\n")
	fmt.Fprintf(&b, "  Text Feature Extraction   features=%d (word, dict, regex, edge, position)\n", r.FeatureCount)
	fmt.Fprintf(&b, "  Viterbi Inference         POS acc=%.3f  NER acc=%.3f\n", r.ViterbiPOSAccuracy, r.ViterbiNERAccuracy)
	fmt.Fprintf(&b, "  MCMC Inference            Gibbs max marginal gap=%.4f  MH=%.4f\n", r.MCMCMaxMarginalGap, r.MHMaxMarginalGap)
	fmt.Fprintf(&b, "  Approx String Matching    ER top-1 recall=%.3f\n", r.ERRecall)
	return b.String()
}

func convertCorpus(raw [][]datagen.TaggedToken) []crf.Sentence {
	out := make([]crf.Sentence, len(raw))
	for i, sent := range raw {
		s := make(crf.Sentence, len(sent))
		for j, tok := range sent {
			s[j] = crf.Token{Word: tok.Word, Tag: tok.Tag}
		}
		out[i] = s
	}
	return out
}

func tagAccuracy(m *crf.Model, test []crf.Sentence) float64 {
	correct, total := 0, 0
	for _, sent := range test {
		words := make([]string, len(sent))
		for i, tok := range sent {
			words[i] = tok.Word
		}
		pred := m.Viterbi(words)
		for i := range sent {
			if pred[i] == sent[i].Tag {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func formatDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func medianTime(trials int, f func() error) time.Duration {
	times := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

func medianTimeDur(trials int, f func() (time.Duration, error)) time.Duration {
	times := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		d, err := f()
		if err != nil {
			return 0
		}
		times = append(times, d)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// simulatedCriticalPath estimates the cluster-critical-path time of the
// aggregate: run `trials` simulated executions, take each segment's
// MINIMUM busy time across trials (each segment's work is deterministic;
// host-side noise — GC pauses, OS preemption — only ever adds), then
// report max-over-segments plus the smallest observed merge/final tail.
func simulatedCriticalPath(db *engine.DB, tbl *engine.Table, agg engine.Aggregate, trials int) (time.Duration, error) {
	var perSeg []time.Duration
	var tail time.Duration
	for trial := 0; trial < trials; trial++ {
		_, bd, err := db.RunSimulatedDetailed(tbl, agg)
		if err != nil {
			return 0, err
		}
		if perSeg == nil {
			perSeg = append([]time.Duration(nil), bd.SegmentTimes...)
			tail = bd.Tail
			continue
		}
		for i, d := range bd.SegmentTimes {
			if d < perSeg[i] {
				perSeg[i] = d
			}
		}
		if bd.Tail < tail {
			tail = bd.Tail
		}
	}
	var maxSeg time.Duration
	for _, d := range perSeg {
		if d > maxSeg {
			maxSeg = d
		}
	}
	return maxSeg + tail, nil
}
