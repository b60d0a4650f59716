package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wimc/internal/config"
	"wimc/internal/engine"
)

// MaxPoints bounds the expanded grid of one Spec. The limit protects the
// experiment service from a hostile or mistyped spec (a few wide axes
// multiply fast); it is far above every sweep shipped in-tree.
const MaxPoints = 1 << 16

// Spec is a canonical, serializable description of one experiment: a base
// configuration, a workload, and an axis grid whose cartesian product
// expands deterministically into simulation points. It is the one wire and
// cache format, and the one way a grid of simulations runs: wimc.Sweep,
// every named figure of internal/figures, wimcbench -spec and the wimcd
// experiment service all build a Spec, expand it and run the points.
type Spec struct {
	// Name is a free-form label for reports; it does not enter Hash.
	Name string `json:"name,omitempty"`
	// Config is the base configuration every point starts from. Parse
	// applies config.Default for absent fields. It need not validate by
	// itself: validation runs per expanded point, after all axis patches.
	Config config.Config `json:"config"`
	// Traffic is the base workload every point starts from.
	Traffic engine.TrafficSpec `json:"traffic"`
	// Axes are the swept dimensions. Expansion is the cartesian product in
	// declaration order: the first axis is the outermost loop. A spec with
	// no axes expands to the single base point.
	Axes []Axis `json:"axes,omitempty"`
	// Workers bounds the worker pool an executor runs this spec's points
	// on: 0 means the executor's default (typically one worker per core),
	// 1 forces sequential execution. Results are byte-identical for every
	// value (internal/exp's determinism contract), so Workers is an
	// execution knob, not part of the experiment identity: it does not
	// enter Hash or any point key.
	Workers int `json:"workers,omitempty"`
}

// Axis is one swept dimension: an ordered list of patch points.
type Axis struct {
	// Name labels the axis in reports and default point labels.
	Name string `json:"name,omitempty"`
	// Points are the axis values, applied in order during expansion.
	Points []AxisPoint `json:"points"`
}

// AxisPoint is one value of an axis: a JSON merge patch over the document
// {"config": ..., "traffic": ...}. Fields absent from the patch keep their
// prior value (base, or an earlier axis' patch); to clear a list field set
// it to []. Unknown field names are rejected at expansion — a typo'd knob
// fails loudly instead of silently sweeping nothing.
type AxisPoint struct {
	// Label names the point in reports ("K=4", "drain-aware"). Empty
	// labels default to "<axis>[<index>]". Labels are presentation only
	// and do not enter Hash.
	Label string `json:"label,omitempty"`
	// Patch is the JSON object merged into the point, e.g.
	// {"config":{"wireless_channels":4},"traffic":{"rate":0.5}}.
	Patch json.RawMessage `json:"patch"`
}

// Point is one expanded simulation point.
type Point struct {
	// Index is the position in expansion order (first axis outermost).
	Index int `json:"index"`
	// Labels holds one label per axis, identifying this point's grid
	// coordinates.
	Labels []string `json:"labels,omitempty"`
	// Config and Traffic are the fully patched, validated inputs.
	Config  config.Config      `json:"config"`
	Traffic engine.TrafficSpec `json:"traffic"`
	// Key is the content address of this point's Result: PointKey of
	// (Config, Traffic) under the current engine.Version.
	Key string `json:"key"`
}

// Params returns the engine parameters of the point.
func (p *Point) Params() engine.Params {
	return engine.Params{Cfg: p.Config, Traffic: p.Traffic}
}

// New returns a spec with the given base and no axes.
func New(name string, cfg config.Config, traffic engine.TrafficSpec) *Spec {
	return &Spec{Name: name, Config: cfg, Traffic: traffic}
}

// Parse decodes a JSON spec, applying config.Default for absent base
// configuration fields and rejecting unknown fields (patches are checked
// later, at expansion). The base is not validated here: only expanded
// points must be valid configurations.
func Parse(data []byte) (*Spec, error) {
	s := &Spec{Config: config.Default()}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: parse: trailing data after spec document")
	}
	if s.Workers < 0 {
		return nil, fmt.Errorf("spec: workers must be >= 0, got %d", s.Workers)
	}
	return s, nil
}

// MarshalPretty returns an indented JSON encoding of the spec.
func (s *Spec) MarshalPretty() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// NumPoints returns the size of the expanded grid without expanding it.
// Past MaxPoints the product saturates at MaxPoints+1, so no number of
// axes can overflow it.
func (s *Spec) NumPoints() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Points)
		if n > MaxPoints {
			return MaxPoints + 1
		}
	}
	return n
}

// Expand applies the axis grid to the base and returns every point in
// expansion order (first axis outermost), each validated and keyed.
// Expansion is fully deterministic: the same spec always yields the same
// points with the same keys, regardless of the JSON field order it was
// parsed from.
func (s *Spec) Expand() ([]Point, error) {
	for i, a := range s.Axes {
		if len(a.Points) == 0 {
			return nil, fmt.Errorf("spec: axis %d (%q) has no points", i, a.Name)
		}
	}
	total := s.NumPoints()
	if total > MaxPoints {
		return nil, fmt.Errorf("spec: grid expands to more than the limit of %d points", MaxPoints)
	}
	if s.Workers < 0 {
		return nil, fmt.Errorf("spec: workers must be >= 0, got %d", s.Workers)
	}
	pts := make([]Point, 0, total)
	idxs := make([]int, len(s.Axes))
	for i := 0; i < total; i++ {
		// Decompose i into per-axis indices, first axis most significant.
		rem := i
		for a := len(s.Axes) - 1; a >= 0; a-- {
			idxs[a] = rem % len(s.Axes[a].Points)
			rem /= len(s.Axes[a].Points)
		}
		pt := Point{
			Index:   i,
			Config:  s.Config,
			Traffic: s.Traffic,
		}
		for a := range s.Axes {
			ap := s.Axes[a].Points[idxs[a]]
			if err := applyPatch(&pt.Config, &pt.Traffic, ap.Patch); err != nil {
				return nil, fmt.Errorf("spec: axis %d (%q) point %d: %w", a, s.Axes[a].Name, idxs[a], err)
			}
			pt.Labels = append(pt.Labels, pointLabel(s.Axes[a], idxs[a]))
		}
		if err := pt.Config.Validate(); err != nil {
			return nil, fmt.Errorf("spec: point %d (%s): %w", i, labelPath(pt.Labels), err)
		}
		key, err := PointKey(pt.Config, pt.Traffic)
		if err != nil {
			return nil, fmt.Errorf("spec: point %d (%s): %w", i, labelPath(pt.Labels), err)
		}
		pt.Key = key
		pts = append(pts, pt)
	}
	return pts, nil
}

// Hash returns the experiment's content address: a hex SHA-256 over the
// engine version and the ordered keys of every expanded point. It is
// insensitive to everything that cannot change results — JSON field order,
// axis labels, Name, Workers — and sensitive to everything that can: any
// config or traffic field of any point, the point order, and
// engine.Version (so a behavior-changing engine build re-keys every
// experiment).
func (s *Spec) Hash() (string, error) {
	pts, err := s.Expand()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, engine.Version)
	io.WriteString(h, "\n")
	for _, p := range pts {
		io.WriteString(h, p.Key)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pointLabel returns the display label of axis point j.
func pointLabel(a Axis, j int) string {
	if l := a.Points[j].Label; l != "" {
		return l
	}
	name := a.Name
	if name == "" {
		name = "axis"
	}
	return fmt.Sprintf("%s[%d]", name, j)
}

// labelPath joins point labels for error messages ("16C16M (Hybrid)/K=4").
func labelPath(labels []string) string {
	if len(labels) == 0 {
		return "base"
	}
	var b bytes.Buffer
	for i, l := range labels {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(l)
	}
	return b.String()
}

// patchView is the shape an axis patch merges into.
type patchView struct {
	Config  *config.Config      `json:"config"`
	Traffic *engine.TrafficSpec `json:"traffic"`
}

// applyPatch merges one axis patch into the point. Unknown fields at any
// nesting level are an error, not a silently dead knob.
func applyPatch(cfg *config.Config, tr *engine.TrafficSpec, patch json.RawMessage) error {
	if len(bytes.TrimSpace(patch)) == 0 {
		return fmt.Errorf("empty patch (use {} for a no-op point)")
	}
	dec := json.NewDecoder(bytes.NewReader(patch))
	dec.DisallowUnknownFields()
	v := patchView{Config: cfg, Traffic: tr}
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("patch: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("patch: trailing data after patch object")
	}
	return nil
}

// pointIdentity is exactly what determines a Result byte-for-byte: the
// full configuration (including its seed), the workload, and the engine
// semantics version. Serialized via Go structs, so the encoding — and the
// hash — is independent of any JSON field order a spec arrived in.
type pointIdentity struct {
	EngineVersion string             `json:"engine_version"`
	Config        config.Config      `json:"config"`
	Traffic       engine.TrafficSpec `json:"traffic"`
}

// PointKey returns the content address of one simulation's Result under
// the current engine.Version: a hex SHA-256 of the canonical encoding of
// (config, traffic, engine version). Two runs share a key if and only if
// they are guaranteed byte-identical.
func PointKey(cfg config.Config, traffic engine.TrafficSpec) (string, error) {
	return PointKeyVersioned(cfg, traffic, engine.Version)
}

// PointKeyVersioned is PointKey under an explicit engine version; it
// exists so invalidation-on-version-bump is directly testable.
func PointKeyVersioned(cfg config.Config, traffic engine.TrafficSpec, version string) (string, error) {
	b, err := json.Marshal(pointIdentity{EngineVersion: version, Config: cfg, Traffic: traffic})
	if err != nil {
		// Only non-finite floats can land here; Validate rejects them.
		return "", fmt.Errorf("spec: point key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ConfigPoint returns an axis point patching configuration fields: fields
// may be a full config.Config or any JSON-object-shaped value (e.g.
// map[string]any{"wireless_channels": 4}). It panics if fields cannot
// marshal — axis construction is programmatic, so that is an API misuse,
// not a runtime condition.
func ConfigPoint(label string, fields any) AxisPoint {
	return AxisPoint{Label: label, Patch: mustPatch(fields, nil)}
}

// TrafficPoint returns an axis point patching traffic fields.
func TrafficPoint(label string, fields any) AxisPoint {
	return AxisPoint{Label: label, Patch: mustPatch(nil, fields)}
}

// PatchPoint returns an axis point patching both halves; either may be
// nil for none.
func PatchPoint(label string, cfgFields, trafficFields any) AxisPoint {
	return AxisPoint{Label: label, Patch: mustPatch(cfgFields, trafficFields)}
}

// mustPatch assembles {"config": c, "traffic": t}, omitting nil halves.
func mustPatch(c, t any) json.RawMessage {
	doc := struct {
		Config  any `json:"config,omitempty"`
		Traffic any `json:"traffic,omitempty"`
	}{Config: c, Traffic: t}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("spec: unmarshalable axis patch: %v", err))
	}
	return b
}
