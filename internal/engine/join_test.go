package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

func buildJoinTables(t *testing.T, db *DB) (*Table, *Table) {
	t.Helper()
	facts, err := db.CreateTable("facts", Schema{
		{Name: "k", Kind: Int},
		{Name: "x", Kind: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := facts.Insert(int64(i%3), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dims, err := db.CreateTable("dims", Schema{
		{Name: "k", Kind: Int},
		{Name: "name", Kind: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"zero", "one", "two"} {
		if err := dims.Insert(int64(i), name); err != nil {
			t.Fatal(err)
		}
	}
	return facts, dims
}

func TestHashJoinInner(t *testing.T) {
	db := Open(3)
	facts, dims := buildJoinTables(t, db)
	out, err := db.HashJoinTemp("joined", facts, "k", dims, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 12 {
		t.Fatalf("joined rows = %d", out.Count())
	}
	// Collided key column is prefixed.
	schema := out.Schema()
	if schema.Index("k") < 0 || schema.Index("dims_k") < 0 || schema.Index("name") < 0 {
		t.Fatalf("joined schema = %v", schema)
	}
	// Every row's name matches its key.
	names := []string{"zero", "one", "two"}
	ki, ni := schema.Index("k"), schema.Index("name")
	err = db.ForEachSegment(out, func(_ int, r Row) error {
		if names[r.Int(ki)] != r.Str(ni) {
			t.Errorf("key %d joined to %q", r.Int(ki), r.Str(ni))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHashJoinDropsUnmatched(t *testing.T) {
	db := Open(2)
	facts, _ := db.CreateTable("f", Schema{{Name: "k", Kind: Int}})
	dims, _ := db.CreateTable("d", Schema{{Name: "k", Kind: Int}})
	for i := 0; i < 6; i++ {
		if err := facts.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dims.Insert(int64(2)); err != nil {
		t.Fatal(err)
	}
	if err := dims.Insert(int64(4)); err != nil {
		t.Fatal(err)
	}
	out, err := db.HashJoinTemp("j", facts, "k", dims, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 2 {
		t.Fatalf("inner join kept %d rows", out.Count())
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	// One-to-many: each left row matches every duplicate right row.
	db := Open(2)
	left, _ := db.CreateTable("l", Schema{{Name: "k", Kind: String}})
	right, _ := db.CreateTable("r", Schema{{Name: "k", Kind: String}, {Name: "v", Kind: Float}})
	if err := left.Insert("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := right.Insert("a", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := db.HashJoinTemp("j", left, "k", right, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 3 {
		t.Fatalf("one-to-many join produced %d rows", out.Count())
	}
}

func TestHashJoinErrors(t *testing.T) {
	db := Open(2)
	a, _ := db.CreateTable("a", Schema{{Name: "k", Kind: Int}, {Name: "f", Kind: Float}})
	b, _ := db.CreateTable("b", Schema{{Name: "k", Kind: String}})
	if _, err := db.HashJoinTemp("x1", a, "zz", b, "k", false); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("want ErrNoColumn, got %v", err)
	}
	if _, err := db.HashJoinTemp("x2", a, "k", b, "zz", false); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("want ErrNoColumn, got %v", err)
	}
	if _, err := db.HashJoinTemp("x3", a, "k", b, "k", false); !errors.Is(err, ErrType) {
		t.Fatalf("mismatched key kinds: %v", err)
	}
	if _, err := db.HashJoinTemp("x4", a, "f", a, "f", false); !errors.Is(err, ErrType) {
		t.Fatalf("float keys should fail: %v", err)
	}
}

func TestHashJoinTempOuter(t *testing.T) {
	db := Open(2)
	facts, _ := db.CreateTable("f", Schema{{Name: "k", Kind: Int}, {Name: "x", Kind: Float}})
	dims, _ := db.CreateTable("d", Schema{{Name: "k", Kind: Int}, {Name: "name", Kind: String}})
	for i := 0; i < 6; i++ {
		if err := facts.Insert(int64(i), float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := dims.Insert(int64(2), "two"); err != nil {
		t.Fatal(err)
	}
	if err := dims.Insert(int64(4), "four"); err != nil {
		t.Fatal(err)
	}
	out, err := db.HashJoinTemp("j", facts, "k", dims, "k", true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Temp() {
		t.Fatal("HashJoinTemp output should be a temp table")
	}
	// Every left row survives; unmatched rows are padded + marked.
	if out.Count() != 6 {
		t.Fatalf("outer join kept %d rows, want 6", out.Count())
	}
	schema := out.Schema()
	mi := schema.Index(MatchedCol)
	if mi != len(schema)-1 {
		t.Fatalf("matched marker at %d in %v", mi, schema)
	}
	ki, ni := schema.Index("k"), schema.Index("name")
	matched := 0
	err = db.ForEachSegment(out, func(_ int, r Row) error {
		if r.Bool(mi) {
			matched++
			if r.Str(ni) == "" {
				t.Errorf("matched row k=%d has empty name", r.Int(ki))
			}
		} else if r.Str(ni) != "" {
			t.Errorf("unmatched row k=%d not zero-padded: %q", r.Int(ki), r.Str(ni))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 2 {
		t.Fatalf("matched rows = %d, want 2", matched)
	}
}

// TestJoinCache pins DB.Join's contract: a hit while both input versions
// stand, a rebuild after a write to either, one entry per distinct join,
// nothing in the catalog, and DropTable of an input discarding the
// entries that read it.
func TestJoinCache(t *testing.T) {
	db := Open(3)
	facts, dims := buildJoinTables(t, db)
	catalog := len(db.TableNames())
	join := func(outer, wantHit bool) *Table {
		t.Helper()
		out, hit, err := db.Join(context.Background(), facts, "k", dims, "k", outer)
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit {
			t.Fatalf("hit = %v, want %v", hit, wantHit)
		}
		return out
	}
	first := join(false, false)
	if first.Count() != 12 || len(db.TableNames()) != catalog {
		t.Fatalf("join rows = %d, catalog %v", first.Count(), db.TableNames())
	}
	if !db.JoinCached(facts, "k", dims, "k", false) || db.JoinCached(facts, "k", dims, "k", true) {
		t.Fatal("JoinCached disagrees with the cache")
	}
	if join(false, true) != first {
		t.Fatal("hit returned a different materialization")
	}
	if err := facts.Insert(int64(1), 99.0); err != nil {
		t.Fatal(err)
	}
	if join(false, false).Count() != 13 {
		t.Fatal("rebuild after a probe-side insert")
	}
	join(false, true)
	if err := dims.Insert(int64(1), "uno"); err != nil {
		t.Fatal(err)
	}
	if join(false, false).Count() != 18 {
		t.Fatal("rebuild after a build-side insert")
	}
	join(true, false)
	if n := db.JoinCacheLen(); n != 2 {
		t.Fatalf("cache entries = %d, want 2", n)
	}
	if err := db.DropTable("dims"); err != nil {
		t.Fatal(err)
	}
	if n := db.JoinCacheLen(); n != 0 {
		t.Fatalf("cache entries after DropTable = %d, want 0", n)
	}
	// A dropped (or never registered) input is joined but not cached.
	join(false, false)
	if n := db.JoinCacheLen(); n != 0 {
		t.Fatalf("cache entries over a dropped input = %d, want 0", n)
	}
}

// TestJoinSingleFlight runs concurrent misses on one join: they share
// one build.
func TestJoinSingleFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := Open(3)
	facts, dims := buildJoinTables(t, db)
	builds := db.Metrics().Counter("engine_join_builds")
	base := builds.Value()
	outs := make([]*Table, 8)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := db.Join(context.Background(), facts, "k", dims, "k", false)
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	if got := builds.Value() - base; got != 1 {
		t.Fatalf("%d concurrent misses made %d builds, want 1", len(outs), got)
	}
	for _, out := range outs {
		if out != outs[0] {
			t.Fatal("concurrent callers got different materializations")
		}
	}
}

func TestJoinSchemaMatchesHashJoin(t *testing.T) {
	db := Open(2)
	facts, dims := buildJoinTables(t, db)
	want, err := JoinSchema(facts, dims, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.HashJoinTemp("joined2", facts, "k", dims, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Schema()
	if len(got) != len(want) {
		t.Fatalf("schema lengths differ: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("schema[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
