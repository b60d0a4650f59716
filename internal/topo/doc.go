// Package topo builds the network topology of a multichip package: per-chip
// mesh NoCs, chip-to-chip wiring for the substrate and interposer
// architectures, in-package memory stacks, and the placement of wireless
// interfaces (WIs) at minimum-average-distance cluster centers for the
// wireless architecture.
//
// The package produces a pure description (Graph); the engine instantiates
// runtime switches and links from it and the route package derives
// forwarding tables from it.
//
// # Construction
//
// Build is one sequential pass and a pure function of the Config: core
// switches and mesh edges in row-major order, then the inter-chip wiring,
// the memory stacks, the core endpoints and the WIs (chip-major, then
// stacks). Even the 64-chip presets build in well under a millisecond.
// TestGraphDigests pins the JSON of the built Graph for every architecture
// from 1 to 64 chips.
package topo
