package engine

// Engine-side fault machinery (active only when config.FaultModelActive):
// the failover route selector that steers packets off dead or degraded
// wireless interfaces onto the wired-only class, and the liveness watchdog
// that bounds every in-network packet's age — the invariant that graceful
// degradation never silently becomes a wedged network.

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/core"
	"wimc/internal/noc"
	"wimc/internal/route"
	"wimc/internal/sim"
)

// faultSelector wraps the configured route selector with fault failover:
// when the class-0 route of a packet would transmit from — or receive at —
// a WI that is dead or inside a post-retry-exhaustion degraded window, the
// packet is forced onto the wired-only class (deadlock freedom holds over
// the union CDG, so the reroute is always safe). Healthy routes fall
// through to the inner selector (static, or the adaptive load-based one).
type faultSelector struct {
	inner route.Selector
	ct    *route.ClassTables
	fb    *core.Fabric

	// Failovers counts packets forced onto the wired-only class
	// (Result.fault_failovers).
	Failovers int64
}

// Pick implements route.Selector.
func (s *faultSelector) Pick(now sim.Cycle, src, dst sim.SwitchID) route.RouteClass {
	if tx := s.ct.TxWI[src][dst]; tx != sim.NoSwitch {
		if s.fb.WIFaultAvoid(now, tx) {
			s.Failovers++
			return route.ClassWiredOnly
		}
		if rx := s.ct.Primary().Next[tx][dst]; rx != sim.NoSwitch && s.fb.WIFaultAvoid(now, rx) {
			s.Failovers++
			return route.ClassWiredOnly
		}
	}
	return s.inner.Pick(now, src, dst)
}

// watchdog is the engine's liveness invariant: every packet accepted by
// the network must deliver (or be dropped by the fault model) within bound
// cycles of injection. Entries form a FIFO deque ordered by injection
// cycle, so the per-cycle check inspects only the oldest live packet.
type watchdog struct {
	bound sim.Cycle
	live  map[uint64]bool
	q     []watchEntry
	head  int
	err   error
}

type watchEntry struct {
	id uint64
	at sim.Cycle
}

func newWatchdog(bound sim.Cycle) *watchdog {
	return &watchdog{bound: bound, live: make(map[uint64]bool)}
}

// onInjected starts a packet's age clock (replayed from the NIs' head
// injection events).
func (wd *watchdog) onInjected(now sim.Cycle, p *noc.Packet) {
	wd.live[p.ID] = true
	wd.q = append(wd.q, watchEntry{id: p.ID, at: now})
}

// remove stops tracking a packet (delivered, or dropped by the fault model).
func (wd *watchdog) remove(id uint64) { delete(wd.live, id) }

// oldest returns the oldest live entry, dropping the dead entries ahead of
// it and compacting the deque once at least half of it (and 1024 entries)
// is dead. ok is false when no live packet is tracked.
func (wd *watchdog) oldest() (e watchEntry, ok bool) {
	for wd.head < len(wd.q) {
		e = wd.q[wd.head]
		if wd.live[e.id] {
			return e, true
		}
		wd.head++
		if wd.head >= 1024 && wd.head*2 >= len(wd.q) {
			wd.q = append(wd.q[:0], wd.q[wd.head:]...)
			wd.head = 0
		}
	}
	return watchEntry{}, false
}

// check verifies the oldest live packet is within the age bound. The first
// violation is retained (and re-reported on later calls).
func (wd *watchdog) check(now sim.Cycle) error {
	if wd.err != nil {
		return wd.err
	}
	if e, ok := wd.oldest(); ok && now-e.at > wd.bound {
		wd.err = fmt.Errorf(
			"engine: liveness watchdog: packet %d injected at cycle %d still in network at cycle %d (max age %d)",
			e.id, e.at, now, wd.bound)
	}
	return wd.err
}

// deadline returns the first future cycle at which check would report a
// violation if no tracked packet made further progress: the oldest live
// entry's injection cycle plus the bound, plus one. sim.Never when no live
// packet is tracked. The fast-forward path caps its event horizon here so
// a wedged packet trips the watchdog at the identical cycle the
// every-cycle loop would have reported it.
func (wd *watchdog) deadline() sim.Cycle {
	if e, ok := wd.oldest(); ok {
		return e.at + wd.bound + 1
	}
	return sim.Never
}

// watchdogBound returns the watchdog's max packet age: the configured
// fault_max_packet_age, or a default generous enough for legitimate
// saturation waits (a full MAC rotation over every WI with deep TX
// backlogs) extended by every scheduled outage window.
func watchdogBound(cfg config.Config) sim.Cycle {
	if cfg.FaultMaxPacketAge > 0 {
		return sim.Cycle(cfg.FaultMaxPacketAge)
	}
	bound := sim.Cycle(32768)
	if n := sim.Cycle(cfg.TotalWIs()) * 1024; n > bound {
		bound = n
	}
	for _, ev := range cfg.FaultSchedule {
		if ev.Kind == config.FaultOutage {
			bound += sim.Cycle(ev.Duration)
		}
	}
	return bound
}

// onFaultNotice observes fabric fault events: dropped packets leave the
// watchdog (they will never deliver), and every event lands on the trace.
func (e *Engine) onFaultNotice(now sim.Cycle, n core.FaultNotice) {
	if e.wd != nil && n.Kind == "drop" && n.Pkt != nil {
		e.wd.remove(n.Pkt.ID)
	}
	if e.trace != nil {
		e.traceFault(now, n)
	}
}
