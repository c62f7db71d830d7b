package itspace

import (
	"sort"

	"pase/internal/canon"
)

// EnumPolicy controls which configurations Enumerate generates for a space.
//
// The default (zero-value) policy reproduces the PaSE prototype's behaviour:
// every split factor must divide both the device count p and the dimension
// extent, and the product of factors must divide p. With p a power of two
// this restricts factors to powers of two, which is what gives the paper's
// reported K ranges (10–30 configs per InceptionV3 vertex at p = 8, up to
// ~100 at p = 64): indivisible dims (spatial extents like 35 or 17, filter
// extents 3 or 5) admit only the factor 1.
type EnumPolicy struct {
	// MaxSplitDims, when > 0, limits how many dimensions may be split
	// simultaneously (>1 parts). The paper's published strategies (Table II)
	// split at most 4 dims; bounding this keeps K tractable on graphs such
	// as the Transformer at p = 64 where every dim is a power of two.
	MaxSplitDims int

	// RequireFullDegree, when true, keeps only configurations whose degree
	// equals p exactly (all devices used). The paper's search space allows
	// degree < p (Table II includes (16, 2, ...) entries at p = 32 — degree
	// equal to p — but also under-subscribed configs are legal per §II); the
	// default keeps them.
	RequireFullDegree bool
}

// CanonicalEncode writes the policy's canonical form for request
// fingerprinting. Both fields change which configurations exist, so both are
// part of a solve's identity.
func (pol EnumPolicy) CanonicalEncode(w *canon.Writer) {
	w.Label("itspace.EnumPolicy")
	w.Int(pol.MaxSplitDims)
	w.Bool(pol.RequireFullDegree)
}

// divisorSplits returns the candidate split factors for a dimension of the
// given extent on p devices: every divisor of p that also divides the extent,
// in increasing order. The factor 1 is always included.
func divisorSplits(extent int64, p int) []int {
	var out []int
	for c := 1; c <= p; c++ {
		if p%c == 0 && extent%int64(c) == 0 && int64(c) <= extent {
			out = append(out, c)
		}
	}
	return out
}

// Enumerate generates all valid parallelization configurations of the space
// for p devices under the policy, in deterministic order (sorted first by
// number of split dims, then lexicographically). Determinism keeps DP table
// layouts, benchmarks, and golden tests stable. Every configuration's degree
// divides p, so it maps onto the devices exactly; a change to which
// configurations exist must bump the enumeration label in the planner's
// snapshot fingerprint.
func Enumerate(s Space, p int, pol EnumPolicy) []Config {
	if p < 1 {
		return nil
	}
	perDim := make([][]int, len(s))
	for i, d := range s {
		perDim[i] = divisorSplits(d.Size, p)
	}

	var out []Config
	cur := make(Config, len(s))
	var rec func(dim, degree int)
	rec = func(dim, degree int) {
		if dim == len(s) {
			if pol.RequireFullDegree && degree != p {
				return
			}
			if pol.MaxSplitDims > 0 && cur.SplitDims() > pol.MaxSplitDims {
				return
			}
			out = append(out, cur.Clone())
			return
		}
		for _, c := range perDim[dim] {
			if degree*c > p {
				break // candidates are sorted ascending
			}
			if p%(degree*c) != 0 {
				continue
			}
			cur[dim] = c
			rec(dim+1, degree*c)
		}
		cur[dim] = 1
	}
	rec(0, 1)

	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].SplitDims(), out[j].SplitDims()
		if si != sj {
			return si < sj
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// DataParallel returns the pure data-parallel configuration for the space:
// the dimension named batchDim is split min(p, extent-compatible) ways and
// every other dimension is unsplit. If the batch dimension cannot absorb the
// full p-way split (extent not divisible), the largest valid factor is used.
func DataParallel(s Space, p int, batchDim string) Config {
	cfg := make(Config, len(s))
	for i := range cfg {
		cfg[i] = 1
	}
	bi := s.DimIndex(batchDim)
	if bi < 0 {
		return cfg
	}
	best := 1
	for _, c := range divisorSplits(s[bi].Size, p) {
		if c > best {
			best = c
		}
	}
	cfg[bi] = best
	return cfg
}
