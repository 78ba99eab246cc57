package madlib_test

import (
	"math"
	"testing"

	"madlib"
	"madlib/internal/datagen"
)

// TestTable1Inventory exercises every Table-1 method end-to-end through
// the public facade — the integration counterpart of the paper's method
// inventory.
func TestTable1Inventory(t *testing.T) {
	db := madlib.Open(madlib.Config{Segments: 4})

	// --- Supervised: Linear Regression (§4.1). ---
	reg := datagen.NewRegression(1, 2000, 3, 0.1)
	regT, err := db.CreateTable("reg", madlib.Schema{
		{Name: "y", Kind: madlib.Float},
		{Name: "x", Kind: madlib.Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.X {
		if err := regT.Insert(reg.Y[i], reg.X[i]); err != nil {
			t.Fatal(err)
		}
	}
	lin, err := db.LinRegr("reg", "y", "x")
	if err != nil {
		t.Fatal(err)
	}
	if lin.R2 < 0.95 {
		t.Fatalf("linregr R² = %v", lin.R2)
	}
	// All historical versions agree with the default through the facade.
	for _, v := range []madlib.LinRegrVersion{madlib.V03, madlib.V01Alpha, madlib.V021Beta} {
		alt, err := db.LinRegrWithVersion("reg", "y", "x", v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range lin.Coef {
			if math.Abs(alt.Coef[i]-lin.Coef[i]) > 1e-8 {
				t.Fatalf("version %v disagrees", v)
			}
		}
	}

	// --- Supervised: Logistic Regression (§4.2). ---
	logd := datagen.NewLogistic(2, 4000, 3)
	logT, _ := db.CreateTable("logd", madlib.Schema{
		{Name: "y", Kind: madlib.Float},
		{Name: "x", Kind: madlib.Vector},
	})
	for i := range logd.X {
		if err := logT.Insert(logd.Y[i], logd.X[i]); err != nil {
			t.Fatal(err)
		}
	}
	logres, err := db.LogRegr("logd", "y", "x", madlib.LogRegrOptions{Solver: madlib.IRLS})
	if err != nil {
		t.Fatal(err)
	}
	if logres.Iterations < 2 || len(logres.Coef) != 3 {
		t.Fatalf("logregr: %+v", logres)
	}

	// --- Supervised: Naive Bayes. ---
	nbT, _ := db.CreateTable("nb", madlib.Schema{
		{Name: "class", Kind: madlib.String},
		{Name: "attrs", Kind: madlib.Vector},
	})
	for i := 0; i < 200; i++ {
		class, attr := "a", 0.0
		if i%2 == 0 {
			class, attr = "b", 1.0
		}
		if err := nbT.Insert(class, []float64{attr}); err != nil {
			t.Fatal(err)
		}
	}
	nb, err := db.NaiveBayes("nb", "class", "attrs", madlib.BayesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := nb.Classify([]float64{1}); got != "b" {
		t.Fatalf("naive bayes classified %q", got)
	}

	// --- Supervised: Decision Trees (C4.5). ---
	dtT, _ := db.CreateTable("dt", madlib.Schema{
		{Name: "class", Kind: madlib.String},
		{Name: "features", Kind: madlib.Vector},
	})
	for i := 0; i < 200; i++ {
		v := float64(i) / 200
		class := "lo"
		if v > 0.5 {
			class = "hi"
		}
		if err := dtT.Insert(class, []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := db.C45("dt", "class", "features", madlib.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tree.Classify([]float64{0.9}); got != "hi" {
		t.Fatalf("c45 classified %q", got)
	}

	// --- Supervised: SVM. ---
	mar := datagen.NewMargin(3, 2000, 3, 0.5)
	svmT, _ := db.CreateTable("svmd", madlib.Schema{
		{Name: "y", Kind: madlib.Float},
		{Name: "x", Kind: madlib.Vector},
	})
	for i := range mar.X {
		if err := svmT.Insert(mar.Y[i], mar.X[i]); err != nil {
			t.Fatal(err)
		}
	}
	svmM, err := db.SVM("svmd", "y", "x", madlib.SVMOptions{Passes: 20})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range mar.X {
		if svmM.Classify(mar.X[i]) == mar.Y[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(mar.X)) < 0.95 {
		t.Fatalf("svm accuracy %d/%d", correct, len(mar.X))
	}

	// --- Unsupervised: k-Means (§4.3). ---
	clu := datagen.NewClusters(4, 1000, 3, 2, 0.3)
	cluT, _ := db.CreateTable("clu", madlib.Schema{
		{Name: "coords", Kind: madlib.Vector},
		{Name: "centroid_id", Kind: madlib.Int},
	})
	for _, p := range clu.Points {
		if err := cluT.Insert(p, int64(-1)); err != nil {
			t.Fatal(err)
		}
	}
	km, err := db.KMeans("clu", "coords", madlib.KMeansOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids) != 3 {
		t.Fatalf("kmeans centroids = %d", len(km.Centroids))
	}

	// --- Unsupervised: SVD Matrix Factorization. ---
	rat := datagen.NewRatings(5, 20, 15, 2, 2000, 0.02)
	ratT, _ := db.CreateTable("rat", madlib.Schema{
		{Name: "i", Kind: madlib.Int},
		{Name: "j", Kind: madlib.Int},
		{Name: "v", Kind: madlib.Float},
	})
	for _, e := range rat.Entries {
		if err := ratT.Insert(int64(e.I), int64(e.J), e.Value); err != nil {
			t.Fatal(err)
		}
	}
	mf, err := db.SVDMF("rat", "i", "j", "v", madlib.SVDMFOptions{Rank: 2, MaxPasses: 150})
	if err != nil {
		t.Fatal(err)
	}
	if mf.RMSE > 0.3 {
		t.Fatalf("svdmf RMSE = %v", mf.RMSE)
	}

	// --- Unsupervised: LDA. ---
	ldaT, _ := db.CreateTable("ldad", madlib.Schema{
		{Name: "doc", Kind: madlib.Int},
		{Name: "word", Kind: madlib.Int},
	})
	for d := 0; d < 20; d++ {
		for i := 0; i < 30; i++ {
			w := int64((d%2)*10 + i%10)
			if err := ldaT.Insert(int64(d), w); err != nil {
				t.Fatal(err)
			}
		}
	}
	ldaM, err := db.LDA("ldad", "doc", "word", madlib.LDAOptions{Topics: 2, Iterations: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ldaM.Vocab != 20 {
		t.Fatalf("lda vocab = %d", ldaM.Vocab)
	}

	// --- Unsupervised: Association Rules. ---
	basT, _ := db.CreateTable("baskets", madlib.Schema{
		{Name: "basket", Kind: madlib.Int},
		{Name: "item", Kind: madlib.String},
	})
	for b, basket := range datagen.Baskets(6, 500, 8) {
		for _, item := range basket {
			if err := basT.Insert(int64(b), item); err != nil {
				t.Fatal(err)
			}
		}
	}
	rules, err := db.AssocRules("baskets", "basket", "item", madlib.AssocOptions{MinSupport: 0.05, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules.Rules) == 0 {
		t.Fatal("no association rules found")
	}

	// --- Descriptive: sketches, quantiles, profiling. ---
	strT, _ := db.CreateTable("stream", madlib.Schema{{Name: "v", Kind: madlib.Int}, {Name: "f", Kind: madlib.Float}})
	for i, v := range datagen.StreamValues(7, 20000, 500) {
		if err := strT.Insert(v, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cm, err := db.CountMinSketch("stream", "v", 0.001, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 20000 {
		t.Fatalf("cms total = %d", cm.Total())
	}
	distinct, err := db.DistinctCount("stream", "v")
	if err != nil {
		t.Fatal(err)
	}
	if distinct < 300 || distinct > 700 {
		t.Fatalf("distinct ≈ %d", distinct)
	}
	q, err := db.Quantile("stream", "f", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-9999.5) > 1.5 {
		t.Fatalf("median = %v", q)
	}
	aq, err := db.ApproxQuantiles("stream", "f", 0.01, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aq[0]-9999.5) > 0.05*20000 {
		t.Fatalf("approx median = %v", aq[0])
	}
	prof, err := db.Profile("stream")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Rows != 20000 || len(prof.Columns) != 2 {
		t.Fatalf("profile: %+v", prof)
	}

	// --- Text analytics: CRF + approximate matching (§5.2). ---
	var sentences []madlib.CRFSentence
	for _, sent := range datagen.NewCorpus(8, 150, 7) {
		s := make(madlib.CRFSentence, len(sent))
		for i, tok := range sent {
			s[i] = madlib.CRFToken{Word: tok.Word, Tag: tok.Tag}
		}
		sentences = append(sentences, s)
	}
	crfM, err := db.CRFTrain(sentences, madlib.CRFTrainOptions{MaxPasses: 10})
	if err != nil {
		t.Fatal(err)
	}
	tags := crfM.Viterbi([]string{"the", "dog", "runs"})
	if len(tags) != 3 {
		t.Fatalf("crf tags = %v", tags)
	}
	ix := madlib.NewTrigramIndex()
	ix.Add(1, "Tim Tebow")
	res := ix.Search("Tim Tebo", 0.4)
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("trigram search = %v", res)
	}
	if madlib.Similarity("abc", "abc") != 1 {
		t.Fatal("similarity of identical strings")
	}
}

// TestMethodRegistryComplete verifies the Table-1 inventory is fully
// registered (every method package contributes its row).
func TestMethodRegistryComplete(t *testing.T) {
	want := []string{
		"linregr", "logregr", "naive_bayes", "c45", "svm",
		"kmeans", "svdmf", "lda", "assoc_rules",
		"cmsketch", "fmsketch", "profile", "quantile",
		"svec", "array_ops", "conjugate_gradient",
		"convex_sgd", "crf", "approx_match", "bootstrap",
	}
	have := map[string]bool{}
	for _, m := range madlib.Methods() {
		have[m.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Fatalf("method %q not registered; registry: %v", name, madlib.Methods())
		}
	}
}

func TestOpenDefaults(t *testing.T) {
	db := madlib.Open(madlib.Config{})
	if db.Engine().SegmentCount() != 4 {
		t.Fatalf("default segments = %d", db.Engine().SegmentCount())
	}
}

func TestFacadeErrors(t *testing.T) {
	db := madlib.Open(madlib.Config{Segments: 2})
	if _, err := db.LinRegr("missing", "y", "x"); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := db.Quantile("missing", "x", 0.5); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := db.CountMinSketch("missing", "v", 0.01, 0.01); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := db.Profile("missing"); err == nil {
		t.Fatal("missing table should fail")
	}
	tbl, _ := db.CreateTable("t", madlib.Schema{{Name: "v", Kind: madlib.Int}})
	_ = tbl
	if _, err := db.Quantile("t", "nope", 0.5); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := db.CountMinSketch("t", "v", 5, 0.01); err == nil {
		t.Fatal("invalid epsilon should fail")
	}
	if _, err := db.DistinctCount("t", "nope"); err == nil {
		t.Fatal("missing column should fail")
	}
}
