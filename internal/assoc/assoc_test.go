package assoc

import (
	"errors"
	"math"
	"testing"

	"madlib/internal/datagen"
	"madlib/internal/engine"
)

var groceries = [][]string{
	{"bread", "milk"},
	{"bread", "diapers", "beer", "eggs"},
	{"milk", "diapers", "beer", "cola"},
	{"bread", "milk", "diapers", "beer"},
	{"bread", "milk", "diapers", "cola"},
}

func findItemset(res *Result, items ...string) *Itemset {
	k := key(items)
	for i := range res.Itemsets {
		if key(res.Itemsets[i].Items) == k {
			return &res.Itemsets[i]
		}
	}
	return nil
}

func findRule(res *Result, ante, cons string) *Rule {
	for i := range res.Rules {
		if len(res.Rules[i].Antecedent) == 1 && res.Rules[i].Antecedent[0] == ante &&
			len(res.Rules[i].Consequent) == 1 && res.Rules[i].Consequent[0] == cons {
			return &res.Rules[i]
		}
	}
	return nil
}

func TestTextbookExample(t *testing.T) {
	res, err := Mine(groceries, Options{MinSupport: 0.4, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baskets != 5 {
		t.Fatalf("baskets = %d", res.Baskets)
	}
	// {diapers, beer} occurs in 3 of 5 baskets.
	is := findItemset(res, "beer", "diapers")
	if is == nil {
		t.Fatalf("missing {beer,diapers}; got %v", res.Itemsets)
	}
	if is.Count != 3 || math.Abs(is.Support-0.6) > 1e-12 {
		t.Fatalf("{beer,diapers} = %+v", is)
	}
	// beer ⇒ diapers has confidence 3/3 = 1.0 and lift 1/(4/5) = 1.25.
	r := findRule(res, "beer", "diapers")
	if r == nil {
		t.Fatalf("missing beer⇒diapers; rules: %v", res.Rules)
	}
	if math.Abs(r.Confidence-1.0) > 1e-12 || math.Abs(r.Lift-1.25) > 1e-12 {
		t.Fatalf("beer⇒diapers = %+v", r)
	}
	// diapers ⇒ beer has confidence 3/4 = 0.75.
	r = findRule(res, "diapers", "beer")
	if r == nil || math.Abs(r.Confidence-0.75) > 1e-12 {
		t.Fatalf("diapers⇒beer = %+v", r)
	}
}

func TestAprioriMonotonicity(t *testing.T) {
	res, err := Mine(groceries, Options{MinSupport: 0.2, MinConfidence: 0.1, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every subset of a frequent itemset must be frequent, with support at
	// least the superset's.
	sup := map[string]float64{}
	for _, is := range res.Itemsets {
		sup[key(is.Items)] = is.Support
	}
	for _, is := range res.Itemsets {
		if len(is.Items) < 2 {
			continue
		}
		for drop := range is.Items {
			var sub []string
			for i, item := range is.Items {
				if i != drop {
					sub = append(sub, item)
				}
			}
			subSup, ok := sup[key(sub)]
			if !ok {
				t.Fatalf("subset %v of %v missing", sub, is.Items)
			}
			if subSup < is.Support-1e-12 {
				t.Fatalf("subset %v support %v < superset %v", sub, subSup, is.Support)
			}
		}
	}
}

func TestRulesRespectThresholds(t *testing.T) {
	res, err := Mine(groceries, Options{MinSupport: 0.3, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		if r.Confidence < 0.8 {
			t.Fatalf("rule %v below confidence threshold", r)
		}
		if r.Support < 0.3-1e-12 {
			t.Fatalf("rule %v below support threshold", r)
		}
	}
	// Rules sorted by descending confidence.
	for i := 1; i < len(res.Rules); i++ {
		if res.Rules[i].Confidence > res.Rules[i-1].Confidence+1e-12 {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestDuplicateItemsInBasket(t *testing.T) {
	res, err := Mine([][]string{{"a", "a", "b"}, {"a", "b", "b"}}, Options{MinSupport: 0.5, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	is := findItemset(res, "a", "b")
	if is == nil || is.Count != 2 {
		t.Fatalf("duplicates mishandled: %+v", is)
	}
}

func TestPlantedRulesFound(t *testing.T) {
	baskets := datagen.Baskets(1, 2000, 10)
	res, err := Mine(baskets, Options{MinSupport: 0.05, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// The generator plants item0 ⇒ item1 with ~0.8 confidence.
	r := findRule(res, "item0", "item1")
	if r == nil {
		t.Fatalf("planted rule not found; rules: %v", res.Rules[:min(5, len(res.Rules))])
	}
	if r.Confidence < 0.7 || r.Confidence > 0.9 {
		t.Fatalf("planted rule confidence = %v", r.Confidence)
	}
	if r.Lift < 2 {
		t.Fatalf("planted rule lift = %v", r.Lift)
	}
}

func TestMineTable(t *testing.T) {
	db := engine.Open(3)
	tbl, _ := db.CreateTable("b", engine.Schema{
		{Name: "basket", Kind: engine.Int},
		{Name: "item", Kind: engine.String},
	})
	for bID, basket := range groceries {
		for _, item := range basket {
			if err := tbl.Insert(int64(bID), item); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := MineTable(db, tbl, "basket", "item", Options{MinSupport: 0.4, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baskets != 5 {
		t.Fatalf("baskets = %d", res.Baskets)
	}
	if r := findRule(res, "beer", "diapers"); r == nil || math.Abs(r.Confidence-1.0) > 1e-12 {
		t.Fatalf("beer⇒diapers wrong via table path: %+v", r)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Mine(nil, Options{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	db := engine.Open(1)
	tbl, _ := db.CreateTable("b", engine.Schema{
		{Name: "basket", Kind: engine.Int},
		{Name: "item", Kind: engine.String},
	})
	if _, err := MineTable(db, tbl, "zz", "item", Options{}); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := MineTable(db, tbl, "basket", "item", Options{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
}

func BenchmarkMine(b *testing.B) {
	baskets := datagen.Baskets(2, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(baskets, Options{MinSupport: 0.05, MinConfidence: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}
