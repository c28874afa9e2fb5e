package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// GridPoint is one expanded cell of a scenario: its configuration patches
// and the per-axis labels that form its row label.
type GridPoint struct {
	// Labels holds one entry per axis, in axis order.
	Labels []string
	// Patches are the base, then each axis value's patch in axis order.
	// They apply in this order, so a later patch's keys win.
	Patches []Patch
}

// RowLabel joins the point's non-empty axis labels with a space.
func (g GridPoint) RowLabel() string {
	parts := make([]string, 0, len(g.Labels))
	for _, l := range g.Labels {
		if l != "" {
			parts = append(parts, l)
		}
	}
	return strings.Join(parts, " ")
}

// Expand enumerates the spec's grid deterministically: the cross product
// of the axes in axis order, the first axis varying slowest. utils supplies
// the values of scaleUtils axes (the running scale's utilization sweep).
// A spec with no axes expands to the single base point.
func (s *Spec) Expand(utils []float64) ([]GridPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	points := []GridPoint{{Patches: []Patch{s.Base}}}
	for _, ax := range s.Axes {
		values := ax.Values
		if ax.ScaleUtils {
			if len(utils) == 0 {
				return nil, fmt.Errorf("scenario: %s: axis %q sweeps the scale's utilizations, but none were provided", s.Name, ax.Name)
			}
			for _, u := range utils {
				if math.IsNaN(u) || math.IsInf(u, 0) {
					return nil, fmt.Errorf("scenario: %s: axis %q: utilization %v is not finite", s.Name, ax.Name, u)
				}
			}
			values = UtilizationValues(utils)
		}
		next := make([]GridPoint, 0, len(points)*len(values))
		for _, pt := range points {
			for _, v := range values {
				next = append(next, GridPoint{
					Labels:  append(append([]string{}, pt.Labels...), v.Label),
					Patches: append(append([]Patch{}, pt.Patches...), v.Patch),
				})
			}
		}
		points = next
	}
	if len(points) == 0 {
		return nil, errors.New("scenario: empty grid")
	}
	return points, nil
}

// UtilizationValues builds the axis values of a utilization sweep: labels
// "60%", "80%", … exactly as the paper figures print them. The values
// must be finite.
func UtilizationValues(utils []float64) []AxisValue {
	vs := make([]AxisValue, len(utils))
	for i, u := range utils {
		vs[i] = AxisValue{Label: fmt.Sprintf("%.0f%%", u*100), Patch: numberPatch("utilization", u)}
	}
	return vs
}

// LambdaValues builds the axis values of an arrival-rate sweep: labels
// "%.0f" of λ, as Fig. 16a prints them. The values must be finite.
func LambdaValues(lambdas []float64) []AxisValue {
	vs := make([]AxisValue, len(lambdas))
	for i, l := range lambdas {
		vs[i] = AxisValue{Label: fmt.Sprintf("%.0f", l), Patch: numberPatch("lambdaPerNode", l)}
	}
	return vs
}

// numberPatch is the patch {key: v}, v spelled as encoding/json spells a
// float64. It panics on a NaN or infinite v, which JSON cannot spell.
func numberPatch(key string, v float64) Patch {
	b, err := json.Marshal(map[string]float64{key: v})
	if err != nil {
		panic(fmt.Sprintf("scenario: %s %v: %v", key, v, err))
	}
	return b
}
