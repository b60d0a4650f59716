package route

import (
	"wimc/internal/sim"
)

// Selector picks the route class of one packet at injection time. The
// class is fixed for the packet's lifetime — every switch on the path
// routes all of its flits by that class's table — so a selector can never
// flap a packet between fabrics mid-flight.
type Selector interface {
	// Pick returns the route class for a packet injected at the src switch
	// toward the dst switch at cycle now.
	Pick(now sim.Cycle, src, dst sim.SwitchID) RouteClass
}

// StaticSelector always answers ClassWirelessPreferred: every packet rides
// class 0, as on a non-hybrid graph. The engine wraps it for fault
// failover on a static hybrid; without faults it installs no selector.
type StaticSelector struct{}

// Pick implements Selector.
func (StaticSelector) Pick(sim.Cycle, sim.SwitchID, sim.SwitchID) RouteClass {
	return ClassWirelessPreferred
}

// LoadSignals is one sample of the live congestion state gating a wireless
// route, supplied by the engine's probe at injection time.
type LoadSignals struct {
	// TxBacklog / TxCapacity: buffered flits in the transmitting WI's TX
	// queues versus their total capacity — the primary saturation signal.
	TxBacklog  int
	TxCapacity int
	// TurnQueueLen / TurnQueueMembers: WIs waiting for a MAC turn on the
	// transmitter's sub-channel versus the sub-channel's member count (the
	// PR 4 policy layer's active-turn queues; both 0 when the channel model
	// has no turn schedule, e.g. the crossbar).
	TurnQueueLen     int
	TurnQueueMembers int
	// WiredFreeCredits / WiredCreditCap: free downstream credits on the
	// wired-class route's first hop out of the source switch versus that
	// port's credit capacity — the spill target's headroom. Spilling onto a
	// backed-up interposer helps nobody.
	WiredFreeCredits int
	WiredCreditCap   int
}

// LoadProbe reads the live load signals for a packet injected at src
// toward dst whose class-0 route transmits at the WI hosted on txWI.
type LoadProbe func(txWI, src, dst sim.SwitchID) LoadSignals

// Adaptive-selector thresholds. The spill decision is hysteresis-bounded
// per transmitting WI: a WI enters the spilled state when its TX backlog
// crosses spillNum/spillDen of capacity (with the MAC turn queue also
// backed up when one exists) and leaves it only when the backlog drains
// below drainNum/drainDen — so selection flips at buffer-drain timescales,
// never per packet. Spilling additionally requires wired headroom: at
// least wiredFreeNum/wiredFreeDen of the wired first hop's credits free.
const (
	spillNum, spillDen         = 3, 4
	drainNum, drainDen         = 1, 4
	wiredFreeNum, wiredFreeDen = 1, 4
)

// AdaptiveSelector spills wireless-bound packets onto the wired class
// while the transmitting WI is saturated and pulls them back when it
// drains. It keeps per-WI hysteresis state and is therefore stateful and
// single-engine like the rest of the runtime fabric (not safe for
// concurrent use).
type AdaptiveSelector struct {
	ct    *ClassTables
	probe LoadProbe
	// spilled holds the hysteresis state per transmitting-WI host switch.
	spilled map[sim.SwitchID]bool
	// Spills / Returns count state transitions (inspection/tests).
	Spills  int64
	Returns int64
}

// NewAdaptiveSelector builds an adaptive selector over the class tables.
// The probe supplies live load signals; ct must be multi-class (the engine
// validates route_select before construction).
func NewAdaptiveSelector(ct *ClassTables, probe LoadProbe) *AdaptiveSelector {
	return &AdaptiveSelector{
		ct:      ct,
		probe:   probe,
		spilled: make(map[sim.SwitchID]bool),
	}
}

// Pick implements Selector: packets whose class-0 route stays wired keep
// class 0 (both tables walk wires; class 0 is the shortest); wireless-bound
// packets consult the transmitter's load with hysteresis.
func (a *AdaptiveSelector) Pick(now sim.Cycle, src, dst sim.SwitchID) RouteClass {
	tx := a.ct.TxWI[src][dst]
	if tx == sim.NoSwitch {
		return ClassWirelessPreferred
	}
	s := a.probe(tx, src, dst)
	spilled := a.spilled[tx]
	if spilled {
		if s.TxBacklog*drainDen <= s.TxCapacity*drainNum {
			spilled = false
			a.spilled[tx] = false
			a.Returns++
		}
	} else if s.TxBacklog*spillDen >= s.TxCapacity*spillNum &&
		(s.TurnQueueMembers == 0 || 2*s.TurnQueueLen >= s.TurnQueueMembers) &&
		s.WiredFreeCredits*wiredFreeDen >= s.WiredCreditCap*wiredFreeNum {
		spilled = true
		a.spilled[tx] = true
		a.Spills++
	}
	if spilled {
		return ClassWiredOnly
	}
	return ClassWirelessPreferred
}

var (
	_ Selector = StaticSelector{}
	_ Selector = (*AdaptiveSelector)(nil)
)
