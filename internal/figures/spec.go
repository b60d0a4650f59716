package figures

import (
	"strings"

	"wimc/internal/engine"
	"wimc/internal/spec"
	"wimc/internal/store"
)

// FromSpec renders any canonical experiment spec as a table: one row per
// expanded point (grid coordinates, content-address prefix, and the
// standard headline metrics). It is the generic counterpart of the named
// figure generators — anything a spec file can describe gets a table
// without writing a generator — and the wimcbench -spec path.
//
// Execution honors the spec's Workers (falling back to o.Workers), o.Seed
// / o.Quick / o.Shards base overrides, and o.Store for cached, incremental
// recomputation.
func FromSpec(sp *spec.Spec, o Opts) (*Table, error) {
	// Base overrides apply before expansion so every point (and its key)
	// reflects what actually runs.
	s := *sp
	o.apply(&s.Config)
	workers := s.Workers
	if workers == 0 {
		workers = o.Workers
	}
	pts, rs, stats, err := store.RunSpec(o.Store, workers, &s, nil)
	if err != nil {
		return nil, err
	}
	hash, err := s.Hash()
	if err != nil {
		return nil, err
	}
	title := s.Name
	if title == "" {
		title = "experiment spec"
	}
	t := &Table{
		ID:     "spec",
		Title:  title,
		Header: []string{"point", "key", "bw_gbps_core", "accepted_flits", "avg_lat", "p95_lat", "pj_bit", "delivered"},
		Notes: []string{
			f("spec %s (engine %s), %d points", hash, engine.Version, len(pts)),
		},
	}
	if o.Store != nil {
		t.Notes = append(t.Notes,
			f("store %s: %d cached, %d ran", o.Store.Dir(), stats.Hits, stats.Misses))
	}
	for i, pt := range pts {
		r := rs[i]
		label := strings.Join(pt.Labels, "/")
		if label == "" {
			label = pt.Config.Name
		}
		t.Rows = append(t.Rows, []string{
			label,
			pt.Key[:16],
			f("%.4f", r.BandwidthPerCoreGbps),
			f("%.4f", r.AcceptedFlitsPerCore),
			f("%.1f", r.AvgLatency),
			f("%d", r.P95Latency),
			f("%.2f", pjBit(pt, r)),
			f("%d", r.DeliveredPackets),
		})
	}
	return t, nil
}
