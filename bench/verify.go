package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"

	"madlib/internal/pgwire"
)

// A check decides whether one wire result is the right answer. Every
// expectation is computed in Go from the generated data; none asks the
// engine. A failed check counts as a failed operation.
type check func(res *pgwire.ClientResult) error

// relTol is the slack for aggregates over floats: the engine merges
// per-morsel partial sums, so its last bits differ from a serial Go sum.
const relTol = 1e-9

var hashSeed = maphash.MakeSeed()

// mix folds one cell's text into a row hash, order-sensitive.
func mix(h uint64, cell string) uint64 {
	return h*0x9E3779B97F4A7C15 + maphash.String(hashSeed, cell)
}

// rowHash hashes one row of text cells.
func rowHash(cells ...string) uint64 {
	var h uint64
	for _, c := range cells {
		h = mix(h, c)
	}
	return h
}

// resultSum is the order-insensitive checksum of a result: the sum of
// its row hashes.
func resultSum(res *pgwire.ClientResult) uint64 {
	var sum uint64
	for _, row := range res.Rows {
		var h uint64
		for _, c := range row {
			if c == nil {
				h = mix(h, "")
			} else {
				h = mix(h, *c)
			}
		}
		sum += h
	}
	return sum
}

// sumCheck expects n rows whose checksum is sum: for results made of
// stored values, whose text form is known exactly.
func sumCheck(n int, sum uint64) check {
	return func(res *pgwire.ClientResult) error {
		if res == nil || len(res.Rows) != n {
			return fmt.Errorf("got %d rows, want %d", rowCount(res), n)
		}
		if got := resultSum(res); got != sum {
			return fmt.Errorf("checksum %x, want %x", got, sum)
		}
		return nil
	}
}

// rowsCheck expects exactly the rows of want, in any order. The first
// nKey cells of a row identify it and must match as text; the remaining
// cells are numbers compared within relTol.
func rowsCheck(nKey int, want map[string][]float64) check {
	return func(res *pgwire.ClientResult) error {
		if res == nil || len(res.Rows) != len(want) {
			return fmt.Errorf("got %d rows, want %d", rowCount(res), len(want))
		}
		seen := make(map[string]bool, len(want))
		for _, row := range res.Rows {
			if len(row) < nKey {
				return fmt.Errorf("row has %d cells, want at least %d", len(row), nKey)
			}
			cells := make([]string, len(row))
			for i, c := range row {
				if c != nil {
					cells[i] = *c
				}
			}
			key := strings.Join(cells[:nKey], "\x00")
			nums, ok := want[key]
			if !ok || seen[key] {
				return fmt.Errorf("unexpected or repeated row %q", key)
			}
			seen[key] = true
			if len(cells)-nKey != len(nums) {
				return fmt.Errorf("row %q has %d numbers, want %d", key, len(cells)-nKey, len(nums))
			}
			for i, w := range nums {
				got, err := strconv.ParseFloat(cells[nKey+i], 64)
				if err != nil {
					return fmt.Errorf("row %q cell %d: %v", key, nKey+i, err)
				}
				if !near(got, w) {
					return fmt.Errorf("row %q cell %d = %v, want %v", key, nKey+i, got, w)
				}
			}
		}
		return nil
	}
}

// tagCheck expects a command tag, as for INSERT, CREATE TABLE AS and DROP.
func tagCheck(tag string) check {
	return func(res *pgwire.ClientResult) error {
		if res == nil || res.Tag != tag {
			got := "<nil>"
			if res != nil {
				got = res.Tag
			}
			return fmt.Errorf("tag %q, want %q", got, tag)
		}
		return nil
	}
}

func rowCount(res *pgwire.ClientResult) int {
	if res == nil {
		return 0
	}
	return len(res.Rows)
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// sameBits reports whether two coefficient vectors are bit-identical:
// retraining on unchanged data must reproduce the model exactly.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// ftoa formats a float exactly as the server's text encoder does.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
