package main

import (
	"fmt"
	"slices"

	swole "github.com/reprolab/swole"
)

// The answer oracle. Every answer the benchmark times is checked against
// the Volcano interpreter (DB.Query), the program's reference engine:
// statements with a fixed answer once before timing starts, and every
// timed read afterwards through an order-independent fingerprint of its
// rows.

// canonical returns the rows sorted lexicographically; SWOLE and the
// interpreter may emit groups in different orders.
func canonical(rows [][]int64) [][]int64 {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare[[]int64])
	return out
}

// diffAnswers reports the first difference between two answers, ignoring
// row order; nil when they hold the same rows.
func diffAnswers(got, want [][]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := canonical(got), canonical(want)
	for i := range w {
		if !slices.Equal(g[i], w[i]) {
			return fmt.Errorf("row %v, want %v", g[i], w[i])
		}
	}
	return nil
}

// fingerprint hashes an answer independently of row order: the sum of a
// per-row hash, mixed with the row count.
func fingerprint(rows [][]int64) uint64 {
	var sum uint64
	for _, r := range rows {
		h := uint64(len(r))
		for _, v := range r {
			h = mix64(h ^ uint64(v))
		}
		sum += h
	}
	return mix64(sum ^ uint64(len(rows)))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// interpreterAnswer runs q on the reference engine.
func interpreterAnswer(db *swole.DB, q string) ([][]int64, error) {
	res, err := db.Query(q)
	if err != nil {
		return nil, fmt.Errorf("interpreter: %w", err)
	}
	return res.Rows(), nil
}
