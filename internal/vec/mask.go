package vec

// This file implements the predicate-pullup kernels at the heart of SWOLE:
// value masking (Section III-A), masked key materialization for key masking
// (Section III-B), and the fused kernels of access merging (Section III-C).
// All of them replace a conditional access with a sequential one at the cost
// of touching every lane.

// SumMasked adds vals[i]*cmp[i] for every lane, the value-masking
// aggregation of Figure 3: non-qualifying values are multiplied by 0 instead
// of being skipped, so the read of vals is sequential and unconditional.
func SumMasked[T Number](vals []T, cmp []byte) int64 {
	if len(vals) == 0 {
		return 0
	}
	_ = cmp[len(vals)-1]
	var sum int64
	for i := range vals {
		sum += int64(vals[i]) * int64(cmp[i])
	}
	return sum
}

// SumProdMasked adds (a[i]*b[i])*cmp[i], the value-masked form of
// sum(r_a * r_b) used throughout the paper's microbenchmark.
func SumProdMasked[T Number](a, b []T, cmp []byte) int64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	_ = cmp[n-1]
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(a[i]) * int64(b[i]) * int64(cmp[i])
	}
	return sum
}

// SumQuotMasked adds (a[i]/b[i])*cmp[i]. Division by zero lanes is defined
// to contribute zero (the generator never produces zero divisors, but a
// masked lane must not fault either, so the divisor is forced away from
// zero for masked lanes using arithmetic, not branching).
func SumQuotMasked[T Number](a, b []T, cmp []byte) int64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	_ = cmp[n-1]
	var sum int64
	for i := 0; i < n; i++ {
		m := int64(cmp[i])
		// A masked lane divides by max(b,1) and multiplies by 0, so it
		// never faults and never contributes.
		d := int64(b[i])
		if d == 0 {
			d = 1
		}
		sum += (int64(a[i]) / d) * m
	}
	return sum
}

// SumSel adds vals[sel[j]] for the first n selection-vector entries — the
// conditional-read aggregation of the hybrid strategy (Figure 1).
func SumSel[T Number](vals []T, sel []int32, n int) int64 {
	var sum int64
	for j := 0; j < n; j++ {
		sum += int64(vals[sel[j]])
	}
	return sum
}

// SumProdSel adds a[sel[j]]*b[sel[j]] over a selection vector.
func SumProdSel[T Number](a, b []T, sel []int32, n int) int64 {
	var sum int64
	for j := 0; j < n; j++ {
		i := sel[j]
		sum += int64(a[i]) * int64(b[i])
	}
	return sum
}

// SumQuotSel adds a[sel[j]]/b[sel[j]] over a selection vector.
func SumQuotSel[T Number](a, b []T, sel []int32, n int) int64 {
	var sum int64
	for j := 0; j < n; j++ {
		i := sel[j]
		sum += int64(a[i]) / int64(b[i])
	}
	return sum
}

// SumAll adds every lane, the degenerate unconditional aggregation.
func SumAll[T Number](vals []T) int64 {
	var sum int64
	for i := range vals {
		sum += int64(vals[i])
	}
	return sum
}

// MaskKeys materializes group-by keys with masking (Figure 4, bottom): lanes
// whose predicate failed receive nullKey, which maps to the hash table's
// throwaway entry. The write is branch-free (conditional move).
func MaskKeys[T Number](keys []T, cmp []byte, nullKey int64, out []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	_ = cmp[n-1]
	_ = out[n-1]
	for i := 0; i < n; i++ {
		k := int64(keys[i])
		if cmp[i] == 0 {
			k = nullKey
		}
		out[i] = k
	}
}

// Widen copies a typed column tile into an int64 scratch tile, the
// unconditional sequential read used before hash lookups.
func Widen[T Number](vals []T, out []int64) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = int64(vals[i])
	}
}

// MulMaskedInto computes tmp[i] = a[i]*b[i]*cmp[i] into a scratch tile,
// used when a masked product feeds a later hash-aggregation stage.
func MulMaskedInto[T Number](a, b []T, cmp []byte, tmp []int64) {
	n := len(a)
	if n == 0 {
		return
	}
	_ = b[n-1]
	_ = cmp[n-1]
	_ = tmp[n-1]
	for i := 0; i < n; i++ {
		tmp[i] = int64(a[i]) * int64(b[i]) * int64(cmp[i])
	}
}

// CmpLTMulInto is the access-merging kernel of Figure 5 (bottom): it fuses
// the predicate x < c with the reuse of x in the aggregation, producing
// tmp[i] = x[i] * (x[i] < c) in a single sequential pass over x.
func CmpLTMulInto[T Number](x []T, c T, tmp []int64) {
	if len(x) == 0 {
		return
	}
	_ = tmp[len(x)-1]
	for i := range x {
		tmp[i] = int64(x[i]) * int64(b2i(x[i] < c))
	}
}

// SumProdTmp adds a[i]*tmp[i], the second access-merging loop of Figure 5:
// tmp already carries both the predicate outcome and the reused value.
func SumProdTmp[T Number](a []T, tmp []int64) int64 {
	if len(a) == 0 {
		return 0
	}
	_ = tmp[len(a)-1]
	var sum int64
	for i := range a {
		sum += int64(a[i]) * tmp[i]
	}
	return sum
}

// MulInto computes tmp[i] *= vals[i], chaining further reused attributes
// into an access-merged intermediate (Figure 10b reuses two attributes).
func MulInto[T Number](vals []T, tmp []int64) {
	if len(vals) == 0 {
		return
	}
	_ = tmp[len(vals)-1]
	for i := range vals {
		tmp[i] *= int64(vals[i])
	}
}

// CountMask counts the accepted lanes of a 0/1 byte mask — the measured
// selectivity feedback the synthesized plans report in Explain.
func CountMask(cmp []byte) int { return CountOnes(cmp) }

// AllOnes reports whether every lane of a 0/1 byte mask is set, the
// tile-level short circuit of term-at-a-time disjunction evaluation.
func AllOnes(cmp []byte) bool {
	for _, v := range cmp {
		if v == 0 {
			return false
		}
	}
	return true
}
