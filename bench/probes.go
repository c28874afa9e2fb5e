package main

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"fmt"
	"time"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/workload"
)

// The seed-4 Random100@1.4 master LP (432 rows, 4348 columns), a copy of
// the repository's testdata/lp fixture: the benchmark reads only its own
// files.
//
//go:embed testdata/random100-u140-seed4.lp.gz
var lpFixture []byte

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int

// probeLayers times single exported calls of the lower layers on the
// workload's own substrate, applications and requests. Each value is the
// median over batches of the time of one call.
func probeLayers(m map[string]float64, budget time.Duration, scn *scenario, tr *workload.Trace, p *plan.Plan) {
	g, apps := scn.g, scn.apps
	edge := g.EdgeNodes()
	reqs := tr.Requests[:min(len(tr.Requests), 2048)]

	if !p.Empty() {
		m["plan.lookup_ns"] = timeBatches(budget, 3, 1, func() {
			for _, r := range reqs {
				if _, ok := p.LookupIndex(r.App, r.Ingress); ok {
					probeSink++
				}
			}
		}) / float64(len(reqs))
	}

	st := substrate.New(g)
	oracle := embedder.ForState(st)
	classes := len(apps) * len(edge)
	m["embedder.mincost_us"] = timeBatches(budget, 3, 1, func() {
		for _, a := range apps {
			for _, v := range edge {
				oracle.MinCostEmbed(a, v)
			}
		}
	}) / float64(classes) / 1e3
	res := g.Capacities()
	m["embedder.best_collocated_us"] = timeBatches(budget, 3, 1, func() {
		for _, r := range reqs {
			oracle.BestCollocated(apps[r.App], r.Ingress, res, r.Demand)
		}
	}) / float64(len(reqs)) / 1e3

	lw := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		lw[i] = l.Cost
	}
	var tree *graph.ShortestPathTree
	m["graph.dijkstra_us"] = timeBatches(budget, 3, 1, func() {
		for _, v := range edge {
			tree = g.DijkstraLinkWeightsInto(tree, v, lw)
		}
	}) / float64(len(edge)) / 1e3

	// One link price moves, then one tree is asked for: the repair-or-
	// recompute path column generation takes every pricing round.
	link := g.LinkElement(0)
	base := st.Price(link)
	flip := false
	i := 0
	m["substrate.tree_refresh_us"] = timeBatches(budget, 3, 64, func() {
		flip = !flip
		if flip {
			st.SetPrice(link, base*1.5)
		} else {
			st.SetPrice(link, base)
		}
		st.Tree(edge[i%len(edge)])
		i++
	}) / 1e3
	st.SetPrice(link, base)
	excl := map[graph.ElementID]bool{link: true}
	m["substrate.view_us"] = timeBatches(budget, 3, 64, func() {
		v := st.AcquireView(excl)
		v.Tree(edge[i%len(edge)])
		v.Close()
		i++
	}) / 1e3
}

// probeLPFixture times a cold solve of the pinned master LP (about half
// a second each): three solves at least, unless the budget says this is a
// smoke run.
func probeLPFixture(m map[string]float64, budget time.Duration) error {
	zr, err := gzip.NewReader(bytes.NewReader(lpFixture))
	if err != nil {
		return fmt.Errorf("lp fixture: %w", err)
	}
	prob, err := lp.Load(zr)
	if err != nil {
		return fmt.Errorf("lp fixture: %w", err)
	}
	var solveErr error
	minSolves := 3
	if budget < 100*time.Millisecond {
		minSolves = 1
	}
	m["lp.solve_fixture_ms"] = timeBatches(budget, minSolves, 1, func() {
		sol, err := prob.Solve()
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("status %v", sol.Status)
		}
		if err != nil {
			solveErr = err
		}
	}) / 1e6
	if solveErr != nil {
		return fmt.Errorf("lp fixture: %w", solveErr)
	}
	return nil
}
