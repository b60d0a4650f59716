// Command wimctopo inspects the topology and routing of a multichip
// configuration: switch/edge inventory, wireless interface placement,
// per-class hop statistics and the deadlock-freedom verdict. It builds the
// route classes engine.New builds and checks their union, so a package
// wimctopo passes is one the engine accepts.
//
// Usage:
//
//	wimctopo [-chips 4] [-stacks 0] [-arch wireless] [-routing shortest|tree] [-paths]
package main

import (
	"flag"
	"fmt"
	"os"

	"wimc/internal/config"
	"wimc/internal/route"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

func main() {
	var (
		chips   = flag.Int("chips", 4, "processing chips (1/4/8 = paper presets; others = generalized grids)")
		stacks  = flag.Int("stacks", 0, "memory stacks (0 = scale with chip count)")
		arch    = flag.String("arch", "wireless", "architecture")
		routing = flag.String("routing", "shortest", "routing mode: shortest, tree")
		paths   = flag.Bool("paths", false, "dump a routing path sample")
	)
	flag.Parse()

	if *stacks <= 0 {
		*stacks = config.DefaultStacks(*chips)
	}
	cfg, err := config.XCYM(*chips, *stacks, config.Architecture(*arch))
	if err != nil {
		fatal(err)
	}
	cfg.Routing = config.RoutingMode(*routing)
	g, err := topo.Build(cfg)
	if err != nil {
		fatal(err)
	}
	ct, err := route.BuildClasses(g, 0)
	if err != nil {
		fatal(err)
	}
	t := ct.Primary()

	fmt.Printf("%s — %d switches, %d endpoints (%d cores, %d DRAM channels)\n",
		cfg.Name, g.SwitchCount(), g.EndpointCount(), len(g.Cores), len(g.MemChannels))

	edgeCount := map[topo.EdgeKind]int{}
	for _, e := range g.Edges {
		edgeCount[e.Kind]++
	}
	for _, k := range []topo.EdgeKind{topo.EdgeMesh, topo.EdgeInterposer, topo.EdgeSerial, topo.EdgeWideIO} {
		if edgeCount[k] > 0 {
			fmt.Printf("  %-12s %3d edges\n", k, edgeCount[k])
		}
	}
	if g.HasWireless() {
		fmt.Printf("  wireless     %3d WIs (full graph, %d pairs)\n",
			len(g.WISwitches), len(g.WISwitches)*(len(g.WISwitches)-1)/2)
		for i, s := range g.WISwitches {
			n := g.Nodes[s]
			where := fmt.Sprintf("chip %d @ (%d,%d)", n.Chip, n.GX, n.GY)
			if n.Kind == topo.KindMemLogic {
				where = fmt.Sprintf("memory stack %d logic die", n.Stack)
			}
			fmt.Printf("    WI %-2d on switch %-3d %s\n", i, s, where)
		}
	}
	if t.Root != sim.NoSwitch {
		fmt.Printf("  tree root: switch %d\n", t.Root)
	}

	// Hop statistics over core-to-core and core-to-memory routes.
	ccHops, cmHops, wireless := hopStats(g, t)
	fmt.Printf("  avg hops: core-core %.2f, core-memory %.2f; routes using wireless: %.1f%%\n",
		ccHops, cmHops, wireless*100)
	if ct.MultiClass() {
		cc, cm, _ := hopStats(g, ct.Class(route.ClassWiredOnly))
		fmt.Printf("  wired-only class avg hops: core-core %.2f, core-memory %.2f\n", cc, cm)
	}

	// The union check: flits of every class share the channels, so a
	// cycle may cross class tables (route.CheckDeadlockFreeUnion).
	if err := route.CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
		fmt.Printf("  deadlock check: FAILED: %v\n", err)
		os.Exit(1)
	}
	if n := len(ct.Tables()); n > 1 {
		fmt.Printf("  deadlock check: union channel dependency graph of %d route classes is acyclic\n", n)
	} else {
		fmt.Println("  deadlock check: channel dependency graph is acyclic")
	}

	if *paths {
		dumpPaths(g, t)
	}
}

// hopStats averages route lengths between endpoint-bearing switches.
func hopStats(g *topo.Graph, t *route.Tables) (coreCore, coreMem, wirelessShare float64) {
	var ccSum, ccN, cmSum, cmN, usingWL, total int
	for _, src := range g.Cores {
		ss := g.Endpoints[src].Switch
		for _, dst := range g.Cores {
			ds := g.Endpoints[dst].Switch
			if ss == ds {
				continue
			}
			p := t.Path(ss, ds)
			ccSum += len(p) - 1
			ccN++
			total++
			if pathUsesWireless(t, p) {
				usingWL++
			}
		}
		for _, dst := range g.MemChannels {
			ds := g.Endpoints[dst].Switch
			p := t.Path(ss, ds)
			cmSum += len(p) - 1
			cmN++
			total++
			if pathUsesWireless(t, p) {
				usingWL++
			}
		}
	}
	if ccN > 0 {
		coreCore = float64(ccSum) / float64(ccN)
	}
	if cmN > 0 {
		coreMem = float64(cmSum) / float64(cmN)
	}
	if total > 0 {
		wirelessShare = float64(usingWL) / float64(total)
	}
	return coreCore, coreMem, wirelessShare
}

func pathUsesWireless(t *route.Tables, p []sim.SwitchID) bool {
	for i := 0; i+1 < len(p); i++ {
		if t.IsWireless(p[i], p[i+1]) {
			return true
		}
	}
	return false
}

// dumpPaths prints example routes: corner-to-corner, core-to-memory and
// cross-chip.
func dumpPaths(g *topo.Graph, t *route.Tables) {
	fmt.Println("  sample routes:")
	pairs := [][2]sim.SwitchID{}
	if len(g.Cores) > 1 {
		a := g.Endpoints[g.Cores[0]].Switch
		b := g.Endpoints[g.Cores[len(g.Cores)-1]].Switch
		pairs = append(pairs, [2]sim.SwitchID{a, b})
	}
	if len(g.MemChannels) > 0 {
		a := g.Endpoints[g.Cores[0]].Switch
		m := g.Endpoints[g.MemChannels[len(g.MemChannels)-1]].Switch
		pairs = append(pairs, [2]sim.SwitchID{a, m})
	}
	for _, pr := range pairs {
		p := t.Path(pr[0], pr[1])
		fmt.Printf("    %d -> %d:", pr[0], pr[1])
		for i, s := range p {
			if i > 0 {
				if t.IsWireless(p[i-1], s) {
					fmt.Print(" ~~>")
				} else {
					fmt.Print(" ->")
				}
			}
			fmt.Printf(" %d", s)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wimctopo:", err)
	os.Exit(1)
}
