// Package energy implements the energy-accounting model of the wimc
// simulator. Dynamic energy is charged per flit-event (switch traversal,
// link traversal, wireless transmission) using per-bit constants from the
// configuration; static energy integrates component leakage/idle power over
// simulated time. All values are tracked in picojoules.
package energy

import (
	"fmt"
	"math"
)

// Class identifies an energy-consuming component class.
type Class int

// Component classes. Link classes mirror the physical link kinds of the
// multichip package.
const (
	ClassSwitch Class = iota + 1
	ClassLinkMesh
	ClassLinkInterposer
	ClassLinkSerial
	ClassLinkWideIO
	ClassLinkTSV
	ClassLinkLocal
	ClassWireless
	numClasses
)

var _classNames = map[Class]string{
	ClassSwitch:         "switch",
	ClassLinkMesh:       "mesh-link",
	ClassLinkInterposer: "interposer-link",
	ClassLinkSerial:     "serial-io",
	ClassLinkWideIO:     "wide-io",
	ClassLinkTSV:        "tsv",
	ClassLinkLocal:      "local-ni",
	ClassWireless:       "wireless",
}

// String returns the human-readable class name.
func (c Class) String() string {
	if s, ok := _classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every component class in display order.
func Classes() []Class {
	out := make([]Class, 0, numClasses-1)
	for c := ClassSwitch; c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// FPScale is the fixed-point denominator of dynamic-energy accumulation:
// charges are quantized to 1/2^30 pJ and summed as integers. Integer sums
// are associative, so per-class totals are independent of the order in
// which flit events charge, and of how the charges are spread over a
// meter's parts; that is what keeps energy byte-identical at every shard
// count. The quantization error per charge is below 1e-9 pJ.
const FPScale = 1 << 30

// QuantizePJ converts a picojoule amount to the fixed-point representation
// shared by the Meter and per-packet energy attribution.
func QuantizePJ(pj float64) int64 { return int64(math.Round(pj * FPScale)) }

// Charge is the dynamic energy of one event (a flit crossing a switch, a
// link or an NI, or a wireless transmission), quantized once when the
// component is built so that each event costs two integer adds.
type Charge struct {
	Class Class
	Bits  int64 // payload bits transferred
	FP    int64 // fixed-point picojoules (FPScale)
}

// NewCharge quantizes pj picojoules charged to class c for the transfer of
// bits payload bits. An unknown class gives the zero Charge, which charges
// nothing (to the meter or, through FP, to a packet).
func NewCharge(c Class, bits int, pj float64) Charge {
	if c <= 0 || c >= numClasses {
		return Charge{}
	}
	return Charge{Class: c, Bits: int64(bits), FP: QuantizePJ(pj)}
}

// Part is one writer's share of a Meter's dynamic energy: per-class
// fixed-point totals and payload bits, added with plain integer adds.
// Each part must have one writer at a time.
type Part struct {
	dynamicFP [numClasses]int64
	bits      [numClasses]int64
	// The pad keeps two parts that shards write at once off one cache line.
	_ [64]byte
}

// Add charges ch to the part.
func (p *Part) Add(ch Charge) {
	p.dynamicFP[ch.Class] += ch.FP
	p.bits[ch.Class] += ch.Bits
}

// Meter accumulates dynamic and static energy for one simulation.
// The zero value is not ready for use; construct with NewMeter.
//
// Dynamic energy is charged to parts, none of them atomically: the root
// part (Root) takes the charges made in serial phases, and each engine
// shard charges its own part (NewPart), so shards running at once never
// write one counter. The getters sum the root and every part. They,
// NewPart and static integration (AddStaticMWCycles) are serial-phase
// operations.
type Meter struct {
	clockGHz float64
	root     Part
	parts    []*Part
	staticPJ float64
}

// NewMeter returns a Meter for a simulation clocked at clockGHz.
func NewMeter(clockGHz float64) (*Meter, error) {
	if clockGHz <= 0 {
		return nil, fmt.Errorf("energy: clock must be positive, got %v GHz", clockGHz)
	}
	return &Meter{clockGHz: clockGHz}, nil
}

// CycleNS returns the duration of one cycle in nanoseconds.
func (m *Meter) CycleNS() float64 { return 1.0 / m.clockGHz }

// Root returns the meter's own part, for serial-phase charges.
func (m *Meter) Root() *Part { return &m.root }

// NewPart adds a part to the meter and returns it.
func (m *Meter) NewPart() *Part {
	p := &Part{}
	m.parts = append(m.parts, p)
	return p
}

// AddStaticMWCycles integrates a static power draw of powerMW milliwatts
// over the given number of cycles. 1 mW sustained for 1 ns is exactly 1 pJ.
func (m *Meter) AddStaticMWCycles(powerMW float64, cycles int64) {
	m.staticPJ += powerMW * float64(cycles) * m.CycleNS()
}

// sum returns class c's fixed-point dynamic energy and payload bits,
// summed over the root and every part.
func (m *Meter) sum(c Class) (fp, bits int64) {
	fp, bits = m.root.dynamicFP[c], m.root.bits[c]
	for _, p := range m.parts {
		fp += p.dynamicFP[c]
		bits += p.bits[c]
	}
	return fp, bits
}

// DynamicPJ returns total dynamic energy charged to class c.
func (m *Meter) DynamicPJ(c Class) float64 {
	if c <= 0 || c >= numClasses {
		return 0
	}
	fp, _ := m.sum(c)
	return float64(fp) / FPScale
}

// Bits returns the payload bits transferred by class c.
func (m *Meter) Bits(c Class) int64 {
	if c <= 0 || c >= numClasses {
		return 0
	}
	_, bits := m.sum(c)
	return bits
}

// TotalDynamicPJ returns dynamic energy summed over all classes.
func (m *Meter) TotalDynamicPJ() float64 {
	var t int64
	for c := ClassSwitch; c < numClasses; c++ {
		fp, _ := m.sum(c)
		t += fp
	}
	return float64(t) / FPScale
}

// StaticPJ returns the integrated static energy.
func (m *Meter) StaticPJ() float64 { return m.staticPJ }

// Breakdown returns a copy of the per-class dynamic totals keyed by class
// name, for reporting.
func (m *Meter) Breakdown() map[string]float64 {
	out := make(map[string]float64, numClasses)
	for c := ClassSwitch; c < numClasses; c++ {
		if fp, _ := m.sum(c); fp != 0 {
			out[c.String()] = float64(fp) / FPScale
		}
	}
	if m.staticPJ != 0 {
		out["static"] = m.staticPJ
	}
	return out
}
