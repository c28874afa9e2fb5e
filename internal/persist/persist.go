// Package persist serializes the library's long-lived artifacts —
// PLAN-VNE plans and the experiment runner's cell results — as versioned
// JSON, so a provider can compute a plan offline (cmd/planner), ship it,
// and load it into an online engine later. Plans are stored as (class,
// share) records whose embeddings are revalidated against the substrate
// and application set on load.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/vnet"
)

// Version tags the on-disk format; readers reject other versions.
const Version = 1

// shareRec is one plan share on disk: the embedding as a node map plus
// per-virtual-link link sequences (paths are reconstructed and revalidated
// on load).
type shareRec struct {
	Fraction float64          `json:"fraction"`
	NodeMap  []graph.NodeID   `json:"nodeMap"`
	Paths    [][]graph.LinkID `json:"paths"`
}

type classRec struct {
	App      int          `json:"app"`
	Ingress  graph.NodeID `json:"ingress"`
	Demand   float64      `json:"demand"`
	Rejected float64      `json:"rejected"`
	Shares   []shareRec   `json:"shares"`
}

type planFile struct {
	Version int        `json:"version"`
	Obj     float64    `json:"objective"`
	Classes []classRec `json:"classes"`
}

// SavePlan writes p as JSON. Embeddings are stored structurally (node map
// + link sequences); costs and usage vectors are recomputed on load.
func SavePlan(w io.Writer, p *plan.Plan) error {
	if p == nil {
		return errors.New("persist: nil plan")
	}
	f := planFile{Version: Version, Obj: p.Obj}
	for _, cp := range p.Classes {
		rec := classRec{
			App: cp.Class.App, Ingress: cp.Class.Ingress,
			Demand: cp.Class.Demand, Rejected: cp.Rejected,
		}
		for _, s := range cp.Shares {
			sr := shareRec{Fraction: s.Fraction, NodeMap: s.E.NodeMap}
			for _, path := range s.E.PathMap {
				sr.Paths = append(sr.Paths, append([]graph.LinkID{}, path.Links...))
			}
			rec.Shares = append(rec.Shares, sr)
		}
		f.Classes = append(f.Classes, rec)
	}
	return json.NewEncoder(w).Encode(f)
}

// LoadPlan reads a plan written by SavePlan, rebuilding and revalidating
// every share embedding against the given substrate and application set.
// A class must pass plan.Class.Check (a known app, a substrate node as its
// ingress, a finite positive demand) and keep θ of every share on that
// ingress; the loaded plan must then pass plan.Validate against g (share
// fractions and rejected share in [0,1], planned load within capacity),
// whose error LoadPlan returns.
func LoadPlan(r io.Reader, g *graph.Graph, apps []*vnet.App) (*plan.Plan, error) {
	var f planFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("persist: decode plan: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("persist: plan version %d, want %d", f.Version, Version)
	}
	classes := make([]plan.ClassPlan, 0, len(f.Classes))
	for _, rec := range f.Classes {
		cp := plan.ClassPlan{
			Class:    plan.Class{App: rec.App, Ingress: rec.Ingress, Demand: rec.Demand},
			Rejected: rec.Rejected,
		}
		if err := cp.Class.Check(g, len(apps)); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		app := apps[rec.App]
		for si, sr := range rec.Shares {
			if len(sr.Paths) != len(app.Links) {
				return nil, fmt.Errorf("persist: class (%d,%d) share %d has %d paths for %d virtual links",
					rec.App, rec.Ingress, si, len(sr.Paths), len(app.Links))
			}
			pathMap := make([]graph.Path, len(sr.Paths))
			for li, linkSeq := range sr.Paths {
				if int(app.Links[li].From) >= len(sr.NodeMap) {
					return nil, fmt.Errorf("persist: class (%d,%d) share %d: node map too short", rec.App, rec.Ingress, si)
				}
				start := sr.NodeMap[app.Links[li].From]
				path, err := g.PathFromLinks(start, linkSeq)
				if err != nil {
					return nil, fmt.Errorf("persist: class (%d,%d) share %d path %d: %w",
						rec.App, rec.Ingress, si, li, err)
				}
				pathMap[li] = path
			}
			emb, err := vnet.NewEmbedding(g, app, sr.NodeMap, pathMap)
			if err != nil {
				return nil, fmt.Errorf("persist: class (%d,%d) share %d: %w", rec.App, rec.Ingress, si, err)
			}
			if root := emb.NodeMap[vnet.Root]; root != rec.Ingress {
				return nil, fmt.Errorf("persist: class (%d,%d) share %d places θ on node %d, not the class ingress",
					rec.App, rec.Ingress, si, root)
			}
			cp.Shares = append(cp.Shares, plan.Share{E: emb, Fraction: sr.Fraction})
		}
		classes = append(classes, cp)
	}
	p := plan.FromClasses(classes, f.Obj)
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("persist: loaded plan invalid: %w", err)
	}
	return p, nil
}
