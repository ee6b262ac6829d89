package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

// packOne packs q through the bid validation pass, as NewAuction does.
func packOne(q resource.Vector) (sparseBundle, error) {
	b := &Bid{User: "u", Bundles: []resource.Vector{q}}
	sparse, _, err := b.check(len(q), &packer{})
	if err != nil {
		return sparseBundle{}, err
	}
	return sparse[0], nil
}

func TestSparseBundlePacking(t *testing.T) {
	q := resource.Vector{0, 3, 0, -2, 0}
	s, err := packOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.idx) != 2 || s.idx[0] != 1 || s.idx[1] != 3 {
		t.Fatalf("idx = %v", s.idx)
	}
	if s.val[0] != 3 || s.val[1] != -2 {
		t.Fatalf("val = %v", s.val)
	}
	if cap(s.idx) != len(s.idx) || cap(s.val) != len(s.val) {
		t.Errorf("packed slices are not exact-size: cap %d/%d for %d non-zeros", cap(s.idx), cap(s.val), len(s.idx))
	}
	p := resource.Vector{10, 20, 30, 40, 50}
	if got, want := s.dot(p), q.Dot(p); got != want {
		t.Errorf("dot = %v, want %v", got, want)
	}
	z := make(resource.Vector, 5)
	s.addInto(z)
	if !z.Equal(q, 0) {
		t.Errorf("addInto = %v", z)
	}
}

// TestSparseEmptyBundle: the packing pass refuses a bundle with no
// non-zero component (−0.0 included) instead of packing a vacuous one,
// and the zero sparse bundle prices at 0.
func TestSparseEmptyBundle(t *testing.T) {
	for _, q := range []resource.Vector{{0, 0}, {math.Copysign(0, -1), 0}} {
		if _, err := packOne(q); err == nil {
			t.Errorf("packed empty bundle %v", q)
		}
	}
	var s sparseBundle
	if got := s.dot(resource.Vector{5, 5}); got != 0 {
		t.Errorf("dot = %v", got)
	}
}

// TestQuickSparseMatchesDense: the sparse fast path must agree exactly
// with the dense implementation for dot products, accumulation, and the
// proxy's bundle choice.
func TestQuickSparseMatchesDense(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Intn(12) + 1
		q := make(resource.Vector, r)
		p := make(resource.Vector, r)
		for i := range q {
			if rng.Intn(2) == 0 {
				q[i] = float64(rng.Intn(21) - 10)
			}
			p[i] = rng.Float64() * 5
		}
		s, err := packOne(q)
		if err != nil {
			// Only an all-zero draw is refused, and it packs nothing.
			return q.IsZero()
		}
		if d1, d2 := s.dot(p), q.Dot(p); d1 != d2 {
			return false
		}
		z1 := make(resource.Vector, r)
		s.addInto(z1)
		if !z1.Equal(q, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickProxyChooseMatchesBestAffordable: the sparse proxy choice must
// agree with the public dense Bid.BestAffordable on random bids.
func TestQuickProxyChooseMatchesBestAffordable(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Intn(6) + 2
		nb := rng.Intn(4) + 1
		b := &Bid{User: "q", Limit: float64(rng.Intn(100) + 1)}
		for j := 0; j < nb; j++ {
			q := make(resource.Vector, r)
			q[rng.Intn(r)] = float64(rng.Intn(10) + 1)
			b.Bundles = append(b.Bundles, q)
		}
		if rng.Intn(2) == 0 {
			for range b.Bundles {
				b.BundleLimits = append(b.BundleLimits, float64(rng.Intn(100)+1))
			}
		}
		p := make(resource.Vector, r)
		for i := range p {
			p[i] = rng.Float64() * 20
		}
		px, err := NewProxy(b)
		if err != nil {
			return false
		}
		got := px.choose(p)
		want, ok := b.BestAffordable(p)
		if !ok {
			want = -1
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
