package main

import (
	"testing"

	"madlib/internal/pgwire"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 199..1, unsorted on purpose
	}
	if _, ok := p95(xs); ok {
		t.Errorf("p95 reported from %d samples, below the minimum of %d", len(xs), minP95Samples)
	}
	xs = append(xs, 200)
	if v, ok := p95(xs); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if v := median(xs); v != 100 {
		t.Errorf("median of 1..200 = %v, want 100", v)
	}
	if v := quantile(nil, 0.5); v != 0 {
		t.Errorf("quantile of no samples = %v, want 0", v)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, b := range builders {
		w1, w1again, w2 := b.build(1, 50), b.build(1, 50), b.build(2, 50)
		if a, b := w1.scheduleSHA(1), w1again.scheduleSHA(1); a != b {
			t.Errorf("%s: same seed, schedule_sha %s and %s", w1.name, a, b)
		}
		if w1.scheduleSHA(1) == w2.scheduleSHA(2) {
			t.Errorf("%s: seeds 1 and 2 share a schedule_sha", w1.name)
		}
		// Another seed, or another round, changes arguments and order but
		// never how many operations of each kind a connection set sends.
		count := func(w *workload, seed int64, round int) []int {
			n := make([]int, len(w.kinds))
			for _, ops := range w.schedule(seed, round) {
				for _, o := range ops {
					n[o.kind]++
				}
			}
			return n
		}
		want := count(w1, 1, 0)
		for _, got := range [][]int{count(w2, 2, 0), count(w1, 1, 7)} {
			for k := range want {
				if got[k] != want[k] || want[k] != w1.kinds[k].perRound {
					t.Errorf("%s: kind %s sent %d times, want %d", w1.name, w1.kinds[k].name, got[k], want[k])
				}
			}
		}
	}
}

func wireResult(tag string, rows ...[]string) *pgwire.ClientResult {
	res := &pgwire.ClientResult{Tag: tag}
	for _, r := range rows {
		row := make([]*string, len(r))
		for i := range r {
			row[i] = &r[i]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func TestVerifierRejectsWrongResults(t *testing.T) {
	rows := rowsCheck(1, map[string][]float64{"1": {2, 0.5}, "2": {3, 1.5}})
	if err := rows(wireResult("", []string{"2", "3", "1.5"}, []string{"1", "2", "0.5000000000001"})); err != nil {
		t.Errorf("right rows in another order, within tolerance: %v", err)
	}
	for name, res := range map[string]*pgwire.ClientResult{
		"wrong value":  wireResult("", []string{"1", "2", "0.5"}, []string{"2", "3", "1.6"}),
		"missing row":  wireResult("", []string{"1", "2", "0.5"}),
		"repeated row": wireResult("", []string{"1", "2", "0.5"}, []string{"1", "2", "0.5"}),
		"unknown key":  wireResult("", []string{"1", "2", "0.5"}, []string{"9", "3", "1.5"}),
		"not a number": wireResult("", []string{"1", "2", "0.5"}, []string{"2", "3", "x"}),
		"no result":    nil,
	} {
		if rows(res) == nil {
			t.Errorf("rowsCheck accepted a result with a %s", name)
		}
	}

	good := wireResult("", []string{"7", "a"}, []string{"8", "b"})
	sum := sumCheck(2, rowHash("7", "a")+rowHash("8", "b"))
	if err := sum(wireResult("", []string{"8", "b"}, []string{"7", "a"})); err != nil {
		t.Errorf("right rows in another order: %v", err)
	}
	if err := sum(good); err != nil {
		t.Errorf("right rows: %v", err)
	}
	if sum(wireResult("", []string{"7", "a"}, []string{"8", "c"})) == nil {
		t.Error("sumCheck accepted a changed cell")
	}
	if sum(wireResult("", []string{"7", "a"})) == nil {
		t.Error("sumCheck accepted a missing row")
	}
	if sum(wireResult("", []string{"a", "7"}, []string{"8", "b"})) == nil {
		t.Error("sumCheck accepted swapped cells")
	}

	if tagCheck("INSERT 0 1")(wireResult("INSERT 0 2")) == nil {
		t.Error("tagCheck accepted another tag")
	}
	if !sameBits([]float64{1, 2}, []float64{1, 2}) || sameBits([]float64{1, 2}, []float64{1, 2.0000000000000004}) {
		t.Error("sameBits does not compare bit for bit")
	}
}

// TestSmoke plays every workload at 1/50 size, untraced and traced, so
// that the harness itself is exercised: set-up, every statement kind and
// its verifier, the ladder, the probes and the span file.
func TestSmoke(t *testing.T) {
	for _, b := range builders {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(b.build, 1, 0, traced, true, t.TempDir())
			if err != nil {
				t.Errorf("%s traced=%v: %v", b.name, traced, err)
			} else if !res.Correct || res.Attempted == 0 || len(res.Metrics) == 0 {
				t.Errorf("%s traced=%v: %d of %d statements failed, %d metrics", b.name, traced, res.Failed, res.Attempted, len(res.Metrics))
			}
		}
	}
}
