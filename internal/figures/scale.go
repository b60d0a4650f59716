package figures

// defaultScaleSizes is the system-size ladder of the scale sweep: the
// paper's 4-chip design point, its 8-chip limit, and the generalized
// 16/32/64-chip grids the paper never reached (arXiv:2501.17567-class
// multichip accelerators). Stacks scale with chips (DefaultStacks).
var defaultScaleSizes = []int{4, 8, 16, 32, 64}

// quickScaleSizes keeps CI's short-mode sweep to three sizes spanning the
// full range.
var quickScaleSizes = []int{4, 16, 64}

// ScaleSweep measures saturation throughput and energy per bit versus
// system size for the three architectures — the first workload beyond the
// paper's own evaluation envelope (its largest system is 8 chips + 4
// stacks). Each size is an XCYM preset with proportionally scaled memory
// stacks, run at maximum load under uniform random traffic with 20% memory
// accesses (the Fig. 2 methodology), run under the active-set scheduler.
func ScaleSweep(o Opts) (*Table, error) {
	sizes := o.ScaleSizes
	if len(sizes) == 0 {
		sizes = defaultScaleSizes
		if o.Quick {
			sizes = quickScaleSizes
		}
	}
	t := &Table{
		ID:    "scale",
		Title: "Saturation bandwidth/core and energy/bit vs system size (uniform, 20% memory)",
		Header: []string{"config", "cores",
			"substrate_bw", "interposer_bw", "wireless_bw",
			"substrate_pj_bit", "interposer_pj_bit", "wireless_pj_bit"},
		Notes: []string{
			"extension experiment: sizes beyond 8 chips exceed the paper's evaluation",
			"stacks scale with chips (16C16M, 32C32M, 64C64M); bw in Gbps/core, energy in pJ/bit",
		},
	}
	sys, err := systems(o, sizes, threeArchs, nil)
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(1.0, 0.2), sys)
	if err != nil {
		return nil, err
	}
	sizeRows(t, pts, rs, len(threeArchs), bw("%.3f"), pjBitCell)
	return t, nil
}
