package wimc

import (
	"fmt"
	"strings"

	"wimc/internal/engine"
	"wimc/internal/exp"
	"wimc/internal/spec"
)

// EngineVersion identifies the simulation semantics of this build; it is
// folded into every content-addressed result key (see Spec and
// internal/spec), so cached Results can never leak across
// behavior-changing engine changes.
const EngineVersion = engine.Version

// Spec is the canonical experiment description: a base (config, traffic)
// pair plus an axis grid that expands deterministically into simulation
// points, each with a stable content-address key. One Spec serializes to
// JSON, hashes stably (field-order-insensitive, engine-version-sensitive)
// and is consumed identically by Sweep, wimcbench -spec, the figure
// generators and the wimcd experiment service. See internal/spec for the
// expansion and hashing contract.
type Spec = spec.Spec

// Axis is one swept dimension of a Spec.
type Axis = spec.Axis

// AxisPoint is one value of an Axis: a JSON merge patch over
// {"config": ..., "traffic": ...}.
type AxisPoint = spec.AxisPoint

// ExpandedPoint is one expanded, validated point of a Spec.
type ExpandedPoint = spec.Point

// NewSpec returns a spec with the given base and no axes (a single run).
func NewSpec(name string, cfg Config, traffic TrafficSpec) *Spec {
	return spec.New(name, cfg, traffic)
}

// ParseSpec decodes a JSON experiment spec, applying configuration
// defaults for absent base fields and rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// ConfigAxisPoint returns an axis point patching configuration fields
// (fields may be a full Config or a map of JSON field names).
func ConfigAxisPoint(label string, fields any) AxisPoint {
	return spec.ConfigPoint(label, fields)
}

// TrafficAxisPoint returns an axis point patching traffic fields.
func TrafficAxisPoint(label string, fields any) AxisPoint {
	return spec.TrafficPoint(label, fields)
}

// SweepPoint is one executed point of a Sweep: its grid coordinates, its
// content-address key, its exact inputs, and its Result.
type SweepPoint struct {
	Labels  []string    `json:"labels,omitempty"`
	Key     string      `json:"key"`
	Config  Config      `json:"config"`
	Traffic TrafficSpec `json:"traffic"`
	Result  *Result     `json:"result"`
}

// Sweep expands the spec and runs every point, returning results in
// expansion order (first axis outermost). Points run concurrently on a
// worker pool bounded by spec.Workers (0 means one worker per core);
// results are byte-identical for every worker count (internal/exp's
// determinism contract).
//
// Sweep always recomputes; for cached, incremental execution submit the
// same spec to a wimcd daemon or run it through wimcbench -spec -store.
func Sweep(s *Spec) ([]SweepPoint, error) {
	pts, err := s.Expand()
	if err != nil {
		return nil, fmt.Errorf("wimc: %w", err)
	}
	ps := make([]engine.Params, len(pts))
	for i := range pts {
		ps[i] = pts[i].Params()
	}
	rs, idx, err := exp.RunIndexed(s.Workers, ps)
	if err != nil {
		return nil, fmt.Errorf("wimc: sweep point %d (%s): %w",
			idx, strings.Join(pts[idx].Labels, "/"), err)
	}
	out := make([]SweepPoint, len(pts))
	for i := range pts {
		out[i] = SweepPoint{
			Labels:  pts[i].Labels,
			Key:     pts[i].Key,
			Config:  pts[i].Config,
			Traffic: pts[i].Traffic,
			Result:  rs[i],
		}
	}
	return out, nil
}
