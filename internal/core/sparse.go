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

// Slab caps, in elements. Slabs start at the first request's size and
// double up to the cap, so a lone proxy allocates about what it uses
// and a 20k-bid batch shares a few hundred slabs. The caps also bound
// what a long-lived Packer keeps reachable between batches — its
// current slabs and the few older ones they point into — to a few
// hundred KiB: 16 and 32 KiB for a component slab, 12 KiB for a header
// or memo slab.
const (
	maxComponents = 4096
	maxHeaders    = 256
)

// Packer carves exact-size sparse bundles, and the memos Bid.Pack keeps,
// out of shared slabs, so packing a batch of bids costs a few slab
// allocations instead of append growth per bundle. A carved slice has
// len == cap, so nothing appended to one can reach its neighbour; the
// slabs stay reachable for exactly as long as some bundle or memo still
// points into them. The zero value is ready to use. A Packer is not
// safe for concurrent use: its owner serializes the Pack calls that
// share it.
type Packer struct {
	idx     []int32
	val     []float64
	headers []sparseBundle
	memos   []bidPack
}

// grow makes room for n more elements in *s: when it has none, *s
// becomes a fresh empty slab twice its size (capped at limit), or n if
// larger. A slab with room is not written back, which spares the
// pointer write, and its write barrier while the GC marks, that
// returning the slice would cost on every bundle packed.
func grow[T any](s *[]T, n, limit int) {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, min(2*cap(*s), limit)))
	}
}

// reserve makes room for a bundle of up to r non-zeros and returns the
// offset its components will be appended from.
func (pk *Packer) reserve(r int) int {
	grow(&pk.idx, r, maxComponents)
	grow(&pk.val, r, maxComponents)
	return len(pk.idx)
}

// take carves the components appended since start into a sparse bundle.
func (pk *Packer) take(start int) sparseBundle {
	end := len(pk.idx)
	return sparseBundle{idx: pk.idx[start:end:end], val: pk.val[start:end:end]}
}

// bundles carves n sparse-bundle headers.
func (pk *Packer) bundles(n int) []sparseBundle {
	grow(&pk.headers, n, maxHeaders)
	start := len(pk.headers)
	pk.headers = pk.headers[:start+n]
	return pk.headers[start : start+n : start+n]
}

// memo carves one Bid.Pack memo.
func (pk *Packer) memo() *bidPack {
	grow(&pk.memos, 1, maxHeaders)
	pk.memos = pk.memos[:len(pk.memos)+1]
	return &pk.memos[len(pk.memos)-1]
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
