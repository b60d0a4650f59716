package figures

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
	"wimc/internal/store"
)

func quickTestSpec() *spec.Spec {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	s := spec.New("figures-test", cfg, engine.TrafficSpec{
		Kind: engine.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
	})
	s.Axes = []spec.Axis{{Name: "seed", Points: []spec.AxisPoint{
		spec.ConfigPoint("seed=1", map[string]any{"seed": 1}),
		spec.ConfigPoint("seed=2", map[string]any{"seed": 2}),
	}}}
	return s
}

// TestFromSpecCachedEquivalence: a spec table is byte-identical whether
// computed fresh, computed into a cold store, or served from a warm one —
// only the store note differs.
func TestFromSpecCachedEquivalence(t *testing.T) {
	plain, err := FromSpec(quickTestSpec(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != 2 || len(plain.Rows[0]) != len(plain.Header) {
		t.Fatalf("malformed table: %+v", plain)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := FromSpec(quickTestSpec(), Opts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FromSpec(quickTestSpec(), Opts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(tb *Table) string {
		out := ""
		for _, r := range tb.Rows {
			for _, c := range r {
				out += c + "\t"
			}
			out += "\n"
		}
		return out
	}
	if rows(plain) != rows(cold) || rows(cold) != rows(warm) {
		t.Fatalf("rows differ across cache modes:\nplain:\n%s\ncold:\n%s\nwarm:\n%s",
			rows(plain), rows(cold), rows(warm))
	}
	// The warm pass must be served entirely from the store.
	found := false
	for _, n := range warm.Notes {
		if n == f("store %s: 2 cached, 0 ran", st.Dir()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("warm run not fully cached; notes = %v", warm.Notes)
	}
}

// TestFigureStoreEquivalence: the named figure generators produce
// byte-identical tables with and without a store (every figure's grid
// runs through store.RunSpec, which serves and fills the cache when one
// is set).
func TestFigureStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run("fig2", Opts{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run("fig2", Opts{Quick: true, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run("fig2", Opts{Quick: true, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Text() != cached.Text() || cached.Text() != warm.Text() {
		t.Fatalf("fig2 differs across cache modes")
	}
	if n, _ := st.Len(); n == 0 {
		t.Fatal("store not populated by figure run")
	}
}
