package main

import (
	"fmt"
	"math/rand"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
)

// budget funds every team. It is far above what any workload can spend,
// so no submit is ever refused for lack of money: a refusal would be a
// failure the workload did not set out to measure.
const budget = 1e12

// marketable is market.Config's default MarketableFraction, the share of
// free capacity the operator sells each auction. The traced run rebuilds
// the operator's supply from outside with it.
const marketable = 0.8

// region is one group of clusters with the marketd demo's hot/cold
// contrast: the first cluster congested, about a third of the rest too.
type region struct {
	clusters []string
	hot      map[string]bool
}

func (r region) split() (hot, cold []string) {
	for _, c := range r.clusters {
		if r.hot[c] {
			hot = append(hot, c)
		} else {
			cold = append(cold, c)
		}
	}
	return hot, cold
}

// addRegion adds clusters named <prefix>r1… to the fleet the way marketd
// builds its demo world: machines of 32 CPU / 128 RAM / 20 disk, r1
// congested along with a third of the rest, the others filled to a low
// background load. marketd congests each other cluster with probability
// 0.33; here exactly a third of them are, chosen by the seed, so every
// seed's region has the same hot/cold make-up.
func addRegion(fleet *cluster.Fleet, rng *rand.Rand, prefix string, clusters, machines int) (region, error) {
	r := region{hot: make(map[string]bool)}
	hot := map[int]bool{1: true}
	for _, i := range rng.Perm(clusters - 1)[:(clusters-1+1)/3] {
		hot[i+2] = true
	}
	for i := 1; i <= clusters; i++ {
		name := fmt.Sprintf("%sr%d", prefix, i)
		c := cluster.New(name, nil)
		c.AddMachines(machines, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return r, err
		}
		target := cluster.Usage{CPU: 0.25, RAM: 0.3, Disk: 0.2}
		if hot[i] {
			target = cluster.Usage{CPU: 0.85, RAM: 0.8, Disk: 0.8}
			r.hot[name] = true
		}
		if err := fleet.FillToUtilization(rng, name, target); err != nil {
			return r, err
		}
		r.clusters = append(r.clusters, name)
	}
	return r, nil
}

// planet is a fleet of regions built deterministically from a seed, so a
// restart can rebuild the identical fleet (the fleet is not journaled).
type planet struct {
	fleet   *cluster.Fleet
	regions []region
}

// buildPlanet builds regions×clusters clusters. One region gets the bare
// marketd names r1…; more regions are prefixed g1-, g2-, ….
func buildPlanet(seed int64, regions, clusters, machines int) (*planet, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &planet{fleet: cluster.NewFleet()}
	for g := 0; g < regions; g++ {
		prefix := ""
		if regions > 1 {
			prefix = fmt.Sprintf("g%d-", g+1)
		}
		r, err := addRegion(p.fleet, rng, prefix, clusters, machines)
		if err != nil {
			return nil, err
		}
		p.regions = append(p.regions, r)
	}
	return p, nil
}

// teamNames returns n team names t000, t001, ….
func teamNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%03d", i)
	}
	return out
}

// openTeams funds every team through the exchange.
func openTeams(ex *market.Exchange, teams []string) error {
	for _, t := range teams {
		if err := ex.OpenAccount(t); err != nil {
			return err
		}
	}
	return nil
}

// orderSpec is one generated order, in the terms of the bid entry form.
type orderSpec struct {
	team, product string
	qty           float64
	clusters      []string
	limit         float64
}

// hotShare is the fixed share of orders whose XOR alternatives are all
// congested clusters; the rest name only uncongested ones. It gives the
// check that hot pools clear above cold ones (the paper's Figure 6)
// demand on both sides.
const hotShare = 0.3

// products is the generated product mix, with cumulative weights.
var products = []struct {
	name string
	cum  float64
}{
	{"batch-compute", 0.5},
	{"serving-frontend", 0.75},
	{"bigtable-node", 0.9},
	{"gfs-storage", 1},
}

// generator draws orders from a seeded stream. Each order's alternatives
// are 1–3 clusters of one region.
type generator struct {
	rng     *rand.Rand
	teams   []string
	regions []region
	// unitLimit bounds the per-unit limit price drawn for an order.
	unitLo, unitHi float64
}

func (g *generator) next() orderSpec {
	rng := g.rng
	r := g.regions[rng.Intn(len(g.regions))]
	hot, cold := r.split()
	pool := cold
	if rng.Float64() < hotShare {
		pool = hot
	}
	k := 1 + rng.Intn(3)
	if k > len(pool) {
		k = len(pool)
	}
	picked := make([]string, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		picked = append(picked, pool[i])
	}
	u := rng.Float64()
	product := products[len(products)-1].name
	for _, p := range products {
		if u < p.cum {
			product = p.name
			break
		}
	}
	qty := float64(1 + rng.Intn(3))
	// Limits are spread continuously: identical limits would all drop
	// out of a clock at the same price.
	limit := qty * (g.unitLo + rng.Float64()*(g.unitHi-g.unitLo))
	return orderSpec{
		team:     g.teams[rng.Intn(len(g.teams))],
		product:  product,
		qty:      qty,
		clusters: picked,
		limit:    limit,
	}
}

func (o orderSpec) submit(ex *market.Exchange) (*market.Order, error) {
	return ex.SubmitProduct(o.team, o.product, o.qty, o.clusters, o.limit)
}
