package route

import (
	"reflect"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

func buildClassGraph(t *testing.T, chips int, arch config.Architecture) (*topo.Graph, *ClassTables) {
	t.Helper()
	cfg := config.MustXCYM(chips, config.DefaultStacks(chips), arch)
	g, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := BuildClasses(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, ct
}

// TestBuildClassesSingleOutsideHybrid: only the hybrid architecture has a
// fabric choice; every other architecture builds exactly class 0.
func TestBuildClassesSingleOutsideHybrid(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
	} {
		_, ct := buildClassGraph(t, 4, arch)
		if ct.MultiClass() {
			t.Fatalf("%s: unexpected multi-class tables", arch)
		}
		if ct.TxWI != nil {
			t.Fatalf("%s: TxWI filled on a single-class graph", arch)
		}
		if got := len(ct.Tables()); got != 1 {
			t.Fatalf("%s: %d class tables, want 1", arch, got)
		}
		// The fallback lookup must land on class 0.
		if ct.Class(ClassWiredOnly) != ct.Primary() {
			t.Fatalf("%s: wired-only lookup did not fall back to class 0", arch)
		}
	}
}

// TestClassZeroMatchesSingleTableBuild: the class-0 table must be
// byte-identical to the single table Build produces (the static-selection
// equivalence at the table level), path costs included.
func TestClassZeroMatchesSingleTableBuild(t *testing.T) {
	for _, arch := range []config.Architecture{config.ArchWireless, config.ArchHybrid} {
		cfg := config.MustXCYM(4, 4, arch)
		g, err := topo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := BuildClasses(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Next, ct.Primary().Next) ||
			!reflect.DeepEqual(pathCost(t, g, single), pathCost(t, g, ct.Primary())) {
			t.Fatalf("%s: class-0 table differs from the single-table build", arch)
		}
	}
}

// TestWiredOnlyClassAvoidsWireless: no hop of any wired-only route crosses
// the wireless fabric, and wired routes can only be as long or longer than
// the full-graph shortest paths.
func TestWiredOnlyClassAvoidsWireless(t *testing.T) {
	g, ct := buildClassGraph(t, 4, config.ArchHybrid)
	primary, wired := ct.Primary(), ct.Classes[ClassWiredOnly]
	if wired == nil {
		t.Fatal("hybrid graph built no wired-only class")
	}
	primaryCost, wiredCost := pathCost(t, g, primary), pathCost(t, g, wired)
	n := len(wired.Next)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := wired.Path(sim.SwitchID(s), sim.SwitchID(d))
			if p == nil {
				t.Fatalf("wired-only: no path %d->%d", s, d)
			}
			for i := 1; i < len(p); i++ {
				// The wireless map of the primary table knows every WI pair.
				if primary.IsWireless(p[i-1], p[i]) {
					t.Fatalf("wired-only route %d->%d crosses wireless at %d->%d", s, d, p[i-1], p[i])
				}
			}
			if wiredCost[s][d] < primaryCost[s][d] {
				t.Fatalf("wired-only cost %d->%d = %d below full-graph %d",
					s, d, wiredCost[s][d], primaryCost[s][d])
			}
		}
	}
}

// TestTxWIMatchesPathWalk: the memoized TxWI lookup must agree with a
// literal walk of the class-0 route for every pair.
func TestTxWIMatchesPathWalk(t *testing.T) {
	_, ct := buildClassGraph(t, 4, config.ArchHybrid)
	primary := ct.Primary()
	n := len(primary.Next)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			want := sim.NoSwitch
			if s != d {
				p := primary.Path(sim.SwitchID(s), sim.SwitchID(d))
				for i := 1; i < len(p); i++ {
					if primary.IsWireless(p[i-1], p[i]) {
						want = p[i-1]
						break
					}
				}
			}
			if got := ct.TxWI[s][d]; got != want {
				t.Fatalf("TxWI[%d][%d] = %v, walk says %v", s, d, got, want)
			}
		}
	}
}

// TestBuildClassesWorkerInvariance: the per-class parallel table build
// (class-0 and wired-only Dijkstra columns plus the TxWI memo fill) must
// be byte-identical across worker counts. Running under -race (CI's short
// suite) doubles as the data-race smoke for the per-class build.
func TestBuildClassesWorkerInvariance(t *testing.T) {
	cfg := config.MustXCYM(8, 4, config.ArchHybrid)
	g, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildClasses(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		ct, err := BuildClasses(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		for c := range base.Classes {
			a, b := base.Classes[c], ct.Classes[c]
			if (a == nil) != (b == nil) {
				t.Fatalf("workers=%d: class %d presence differs", workers, c)
			}
			if a == nil {
				continue
			}
			if a.Root != b.Root || !reflect.DeepEqual(a.Next, b.Next) {
				t.Fatalf("workers=%d: class %d tables differ from sequential build", workers, c)
			}
		}
		if !reflect.DeepEqual(base.TxWI, ct.TxWI) {
			t.Fatalf("workers=%d: TxWI differs from sequential build", workers)
		}
	}
}

// TestDeadlockFreeUnionHybrid: the union of the hybrid class tables'
// channel dependencies must be acyclic — per-table acyclicity is not
// enough once packets of both classes share the physical channels.
func TestDeadlockFreeUnionHybrid(t *testing.T) {
	sizes := []int{4, 8, 16}
	if !testing.Short() {
		sizes = append(sizes, 64)
	}
	for _, chips := range sizes {
		g, ct := buildClassGraph(t, chips, config.ArchHybrid)
		if !ct.MultiClass() {
			t.Fatalf("%d chips: hybrid graph built no wired-only class", chips)
		}
		if err := CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
			t.Fatalf("%d chips: %v", chips, err)
		}
	}
}

// fakeProbe returns a LoadProbe serving a settable signal sample.
type fakeProbe struct{ s LoadSignals }

func (p *fakeProbe) probe(sim.SwitchID, sim.SwitchID, sim.SwitchID) LoadSignals { return p.s }

// TestAdaptiveSelectorHysteresis drives the selector through the spill /
// hold / return cycle with a fake probe and checks the thresholds and the
// flap bound: between the drain and spill thresholds the decision must not
// move, whichever state the WI is in.
func TestAdaptiveSelectorHysteresis(t *testing.T) {
	const wi = sim.SwitchID(7)
	ct := &ClassTables{TxWI: [][]sim.SwitchID{{sim.NoSwitch, wi}, {wi, sim.NoSwitch}}}
	fp := &fakeProbe{}
	sel := NewAdaptiveSelector(ct, fp.probe)

	signals := func(backlog int) LoadSignals {
		return LoadSignals{
			TxBacklog: backlog, TxCapacity: 96,
			TurnQueueLen: 4, TurnQueueMembers: 4,
			WiredFreeCredits: 128, WiredCreditCap: 128,
		}
	}

	// Fully wired pair: class 0 without consulting the probe.
	if got := sel.Pick(0, 0, 0); got != ClassWirelessPreferred {
		t.Fatalf("wired pair picked %v", got)
	}

	// Light load: stays wireless-preferred.
	fp.s = signals(10)
	if got := sel.Pick(1, 0, 1); got != ClassWirelessPreferred {
		t.Fatalf("light load picked %v", got)
	}
	// Mid-range load (between drain and spill thresholds): still wireless.
	fp.s = signals(48)
	if got := sel.Pick(2, 0, 1); got != ClassWirelessPreferred {
		t.Fatalf("mid load picked %v before any spill", got)
	}
	// Saturation: spills exactly once.
	fp.s = signals(96)
	for i := 0; i < 3; i++ {
		if got := sel.Pick(3, 0, 1); got != ClassWiredOnly {
			t.Fatalf("saturated pick %d returned %v", i, got)
		}
	}
	if sel.Spills != 1 {
		t.Fatalf("spill transitions = %d, want 1", sel.Spills)
	}
	// Back to the same mid-range load: the spilled state must hold (no
	// per-packet flap at a threshold-straddling load).
	fp.s = signals(48)
	if got := sel.Pick(4, 0, 1); got != ClassWiredOnly {
		t.Fatalf("mid load flapped back to %v while spilled", got)
	}
	// Drained: returns once and stays wireless after.
	fp.s = signals(10)
	if got := sel.Pick(5, 0, 1); got != ClassWirelessPreferred {
		t.Fatalf("drained pick returned %v", got)
	}
	if sel.Returns != 1 {
		t.Fatalf("return transitions = %d, want 1", sel.Returns)
	}

	// Saturated WI but no wired headroom: the spill is suppressed.
	fp.s = signals(96)
	fp.s.WiredFreeCredits = 8
	if got := sel.Pick(6, 0, 1); got != ClassWirelessPreferred {
		t.Fatalf("headroom-less spill picked %v", got)
	}
	// Saturated WI with an uncontended turn queue: the MAC is not the
	// bottleneck, so the spill is suppressed too.
	fp.s = signals(96)
	fp.s.TurnQueueLen = 1
	if got := sel.Pick(7, 0, 1); got != ClassWirelessPreferred {
		t.Fatalf("uncontended-MAC spill picked %v", got)
	}
}
