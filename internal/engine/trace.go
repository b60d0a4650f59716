package engine

import (
	"encoding/json"
	"fmt"

	"wimc/internal/core"
	"wimc/internal/noc"
	"wimc/internal/route"
	"wimc/internal/sim"
)

// TraceRecord is one line of the packet-level delivery trace.
type TraceRecord struct {
	ID          uint64         `json:"id"`
	Src         sim.EndpointID `json:"src"`
	Dst         sim.EndpointID `json:"dst"`
	Class       string         `json:"class"`
	Flits       int            `json:"flits"`
	CreatedAt   sim.Cycle      `json:"created_at"`
	InjectedAt  sim.Cycle      `json:"injected_at"`
	DeliveredAt sim.Cycle      `json:"delivered_at"`
	Hops        int32          `json:"hops"`
	EnergyPJ    float64        `json:"energy_pj"`
	Retransmits int32          `json:"retransmits,omitempty"`
	ReplyFor    uint64         `json:"reply_for,omitempty"`
	// RouteClass names the forwarding-table class the packet rode
	// (adaptive hybrid runs; omitted for the default class 0).
	RouteClass string `json:"route_class,omitempty"`
}

// tracePacket emits one JSON line for a delivered packet.
func (e *Engine) tracePacket(p *noc.Packet) {
	rec := TraceRecord{
		ID:          p.ID,
		Src:         p.Src,
		Dst:         p.Dst,
		Class:       p.Class.String(),
		Flits:       p.NumFlits,
		CreatedAt:   p.CreatedAt,
		InjectedAt:  p.InjectedAt,
		DeliveredAt: p.DeliveredAt,
		Hops:        p.Hops,
		EnergyPJ:    p.EnergyPJ(),
		Retransmits: p.Retransmits,
		ReplyFor:    p.ReplyFor,
	}
	if p.RouteClass != 0 {
		rec.RouteClass = route.RouteClass(p.RouteClass).String()
	}
	e.writeTrace(rec)
}

// FaultTraceRecord is one line of the fault-event trace, interleaved with
// the packet records on the same writer; the "fault" key distinguishes the
// two record types.
type FaultTraceRecord struct {
	Fault string    `json:"fault"` // "retransmit" | "drop" | "wi-fail" | "failover"
	Cycle sim.Cycle `json:"cycle"`
	WI    int       `json:"wi"` // fabric WI index; -1 when not WI-specific
	Pkt   uint64    `json:"pkt,omitempty"`
	// Reason is the drop cause: "retry-exhausted" or "wi-fail".
	Reason string `json:"reason,omitempty"`
}

// traceFault emits one JSON line for a fault-model event, on the same
// writer as the packet trace.
func (e *Engine) traceFault(now sim.Cycle, n core.FaultNotice) {
	rec := FaultTraceRecord{Fault: n.Kind, Cycle: now, WI: n.WI, Reason: n.Reason}
	if n.Pkt != nil {
		rec.Pkt = n.Pkt.ID
	}
	e.writeTrace(rec)
}

// writeTrace writes rec as one JSON line. The first encode or write error
// is retained, ends the trace and is reported by Run.
func (e *Engine) writeTrace(rec any) {
	if e.traceErr != nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		e.traceErr = fmt.Errorf("engine: trace encode: %w", err)
		return
	}
	data = append(data, '\n')
	if _, err := e.trace.Write(data); err != nil {
		e.traceErr = fmt.Errorf("engine: trace write: %w", err)
	}
}
