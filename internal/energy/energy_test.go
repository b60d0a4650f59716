package energy

import (
	"maps"
	"math"
	"math/rand"
	"testing"
)

func TestNewMeterRejectsBadClock(t *testing.T) {
	if _, err := NewMeter(0); err == nil {
		t.Fatal("zero clock accepted")
	}
	if _, err := NewMeter(-1); err == nil {
		t.Fatal("negative clock accepted")
	}
}

func TestCycleNS(t *testing.T) {
	m, err := NewMeter(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CycleNS(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("2.5 GHz cycle = %v ns, want 0.4", got)
	}
}

func TestDynamicAccounting(t *testing.T) {
	m, _ := NewMeter(2.5)
	sw := NewCharge(ClassSwitch, 32, 70.4)
	if sw.FP != QuantizePJ(70.4) || sw.Bits != 32 || sw.Class != ClassSwitch {
		t.Fatalf("NewCharge(switch, 32, 70.4) = %+v", sw)
	}
	m.Root().Add(sw)
	m.Root().Add(sw)
	m.Root().Add(NewCharge(ClassWireless, 32, 73.6))
	// Accumulation is fixed-point (quantized to 1/FPScale pJ per charge),
	// so totals carry up to a few quantization steps of error.
	if got := m.DynamicPJ(ClassSwitch); math.Abs(got-140.8) > 1e-6 {
		t.Fatalf("switch dynamic = %v, want 140.8", got)
	}
	if got := m.Bits(ClassSwitch); got != 64 {
		t.Fatalf("switch bits = %v, want 64", got)
	}
	if got := m.TotalDynamicPJ(); math.Abs(got-214.4) > 1e-6 {
		t.Fatalf("total dynamic = %v, want 214.4", got)
	}
}

// TestDynamicOrderIndependent is the property the sharded engine leans on:
// charging the same multiset of amounts in any order yields bit-identical
// totals, because the accumulator is an integer.
func TestDynamicOrderIndependent(t *testing.T) {
	amounts := []float64{70.4, 2.3, 0.375, 5.2, 73.6, 0.1, 2.2, 6.5}
	a, _ := NewMeter(2.5)
	for _, pj := range amounts {
		a.Root().Add(NewCharge(ClassWireless, 32, pj))
	}
	b, _ := NewMeter(2.5)
	for i := len(amounts) - 1; i >= 0; i-- {
		b.Root().Add(NewCharge(ClassWireless, 32, amounts[i]))
	}
	if a.DynamicPJ(ClassWireless) != b.DynamicPJ(ClassWireless) {
		t.Fatalf("order-dependent accumulation: %v vs %v",
			a.DynamicPJ(ClassWireless), b.DynamicPJ(ClassWireless))
	}
	if a.TotalDynamicPJ() != b.TotalDynamicPJ() {
		t.Fatalf("order-dependent totals: %v vs %v", a.TotalDynamicPJ(), b.TotalDynamicPJ())
	}
}

// TestPartsSumToOneMeter spreads one random multiset of charges over the
// root and N parts, in a shuffled order, and requires every getter to read
// what one meter charged with the same charges in their original order
// reads: splitting the charges by shard must not move a Result byte.
func TestPartsSumToOneMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	classes := Classes()
	charges := make([]Charge, 4000)
	for i := range charges {
		c := classes[rng.Intn(len(classes))]
		charges[i] = NewCharge(c, 1+rng.Intn(512), rng.Float64()*100)
	}
	one, _ := NewMeter(2.5)
	for _, ch := range charges {
		one.Root().Add(ch)
	}
	one.AddStaticMWCycles(3, 700)
	for _, n := range []int{1, 2, 3, 8} {
		m, _ := NewMeter(2.5)
		parts := []*Part{m.Root()}
		for i := 0; i < n; i++ {
			parts = append(parts, m.NewPart())
		}
		for _, i := range rng.Perm(len(charges)) {
			parts[rng.Intn(len(parts))].Add(charges[i])
		}
		m.AddStaticMWCycles(3, 700)
		for _, c := range classes {
			if got, want := m.DynamicPJ(c), one.DynamicPJ(c); got != want {
				t.Fatalf("%d parts: %v dynamic = %v, one meter %v", n, c, got, want)
			}
			if got, want := m.Bits(c), one.Bits(c); got != want {
				t.Fatalf("%d parts: %v bits = %v, one meter %v", n, c, got, want)
			}
		}
		if got, want := m.TotalDynamicPJ(), one.TotalDynamicPJ(); got != want {
			t.Fatalf("%d parts: total dynamic = %v, one meter %v", n, got, want)
		}
		if got, want := m.Breakdown(), one.Breakdown(); !maps.Equal(got, want) {
			t.Fatalf("%d parts: breakdown %v, one meter %v", n, got, want)
		}
	}
}

func TestInvalidClassIgnored(t *testing.T) {
	m, _ := NewMeter(2.5)
	for _, c := range []Class{0, 999} {
		ch := NewCharge(c, 32, 10)
		if ch != (Charge{}) {
			t.Fatalf("invalid class %d charge = %+v, want the zero Charge", c, ch)
		}
		m.Root().Add(ch)
		m.NewPart().Add(ch)
	}
	if m.TotalDynamicPJ() != 0 {
		t.Fatal("invalid classes leaked into totals")
	}
	if m.DynamicPJ(Class(999)) != 0 || m.Bits(Class(0)) != 0 {
		t.Fatal("invalid class reads nonzero")
	}
	if len(m.Breakdown()) != 0 {
		t.Fatalf("invalid classes leaked into the breakdown: %v", m.Breakdown())
	}
}

func TestStaticIntegration(t *testing.T) {
	// 1 mW for 1 ns is exactly 1 pJ: at 2.5 GHz, 2.5 cycles per ns.
	m, _ := NewMeter(2.5)
	m.AddStaticMWCycles(1.0, 2500) // 1 mW for 1 µs = 1000 pJ
	if got := m.StaticPJ(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("static = %v pJ, want 1000", got)
	}
}

func TestBreakdown(t *testing.T) {
	m, _ := NewMeter(1)
	m.NewPart().Add(NewCharge(ClassLinkSerial, 32, 160))
	m.AddStaticMWCycles(2, 500)
	b := m.Breakdown()
	if b["serial-io"] != 160 {
		t.Fatalf("breakdown serial-io = %v, want 160", b["serial-io"])
	}
	if b["static"] != 1000 {
		t.Fatalf("breakdown static = %v, want 1000", b["static"])
	}
	if _, ok := b["switch"]; ok {
		t.Fatal("breakdown contains zero-valued class")
	}
}

func TestClassNames(t *testing.T) {
	for _, c := range Classes() {
		if c.String() == "" {
			t.Fatalf("class %d has empty name", c)
		}
	}
	if ClassWireless.String() != "wireless" {
		t.Fatalf("wireless class name = %q", ClassWireless.String())
	}
	if Class(99).String() != "class(99)" {
		t.Fatalf("unknown class name = %q", Class(99).String())
	}
}

func TestClassesCoverAll(t *testing.T) {
	if len(Classes()) != int(numClasses)-1 {
		t.Fatalf("Classes() returned %d entries, want %d", len(Classes()), numClasses-1)
	}
}
