package core

import "clustermarket/internal/resource"

// sparseBundle is the packed form of a bundle vector used on the clock's
// hot path. Real bids touch a handful of pools (one cluster × three
// dimensions) out of hundreds, so evaluating qᵀp over only the non-zero
// components turns each auction round from O(U·R) into O(Σ nnz).
type sparseBundle struct {
	idx []int32
	val []float64
}

// maxSlab caps the elements of one packer slab. Slabs start at the
// first request's size and double up to the cap, so a lone proxy
// allocates about what it uses, and a 20k-bid batch shares a few dozen.
const maxSlab = 4096

// packer carves exact-size sparse bundles out of shared slabs, so packing
// a batch of bids costs a few slab allocations instead of append growth
// per bundle. A carved slice has len == cap, so nothing appended to one
// can reach its neighbour; the slabs stay reachable for exactly as long
// as some bundle still points into them.
type packer struct {
	idx     []int32
	val     []float64
	headers []sparseBundle
}

// grow returns s when it has room for n more elements, else a fresh
// empty slab twice the size of s (capped at maxSlab), or n if larger.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return make([]T, 0, max(n, min(2*cap(s), maxSlab)))
}

// reserve makes room for a bundle of up to r non-zeros and returns the
// offset its components will be appended from.
func (pk *packer) reserve(r int) int {
	pk.idx, pk.val = grow(pk.idx, r), grow(pk.val, r)
	return len(pk.idx)
}

// take carves the components appended since start into a sparse bundle.
func (pk *packer) take(start int) sparseBundle {
	end := len(pk.idx)
	return sparseBundle{idx: pk.idx[start:end:end], val: pk.val[start:end:end]}
}

// bundles carves n sparse-bundle headers.
func (pk *packer) bundles(n int) []sparseBundle {
	pk.headers = grow(pk.headers, n)
	start := len(pk.headers)
	pk.headers = pk.headers[:start+n]
	return pk.headers[start : start+n : start+n]
}

// dot computes qᵀp touching only non-zero components.
//
//marketlint:allocfree
func (s sparseBundle) dot(p resource.Vector) float64 {
	var sum float64
	for k, i := range s.idx {
		sum += s.val[k] * p[i]
	}
	return sum
}

// addInto accumulates the bundle into dense vector z.
//
//marketlint:allocfree
func (s sparseBundle) addInto(z resource.Vector) {
	for k, i := range s.idx {
		z[i] += s.val[k]
	}
}

// valueAt returns the bundle's component in pool r and whether the bundle
// touches it at all. The miss/hit distinction matters to the incremental
// engine's determinism contract: a stale-pool re-sum must skip untouched
// bundles entirely, exactly as addInto never visits them, rather than
// add a 0.0 (which is not always a bit-level no-op in IEEE arithmetic).
// Bundles hold a handful of non-zero components, so the linear scan is
// cheaper than any index structure.
//
//marketlint:allocfree
func (s sparseBundle) valueAt(r int32) (float64, bool) {
	for k, i := range s.idx {
		if i == r {
			return s.val[k], true
		}
	}
	return 0, false
}
