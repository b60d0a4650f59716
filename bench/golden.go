package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wimc/internal/engine"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins the canonical Result digests of every full-scale workload for
// every pool seed under one engine.Version. Digests are keyed by workload,
// then by config seed in decimal.
type golden struct {
	EngineVersion string                       `json:"engine_version"`
	Digests       map[string]map[string]string `json:"digests"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// check compares the digest of a workload's points at one config seed with
// the pinned one. It returns a violation message, or "" when they match.
func (g *golden) check(workload string, seed uint64, digest string) string {
	if g.EngineVersion != engine.Version {
		return fmt.Sprintf("golden digests were recorded under %s, this build is %s: rerun with -update-golden",
			g.EngineVersion, engine.Version)
	}
	want, ok := g.Digests[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return fmt.Sprintf("golden.json pins no digest for seed %d", seed)
	}
	if want != digest {
		return fmt.Sprintf("digest %s differs from golden %s for seed %d", digest[:12], want[:12], seed)
	}
	return ""
}

// updatable refuses while the pinned version is current: digests may only
// move together with a version bump, the same invalidation contract the
// result store uses.
func (g *golden) updatable() error {
	if g.EngineVersion == engine.Version {
		return fmt.Errorf("golden digests are already pinned for %s; -update-golden needs an engine.Version bump", engine.Version)
	}
	return nil
}

// writeGolden records digests for the current engine.Version.
func writeGolden(path string, digests map[string]map[string]string) error {
	b, err := json.MarshalIndent(golden{EngineVersion: engine.Version, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest is the SHA-256 of the canonical Result JSON with the fast-forward
// telemetry zeroed: skipping idle cycles is the one sanctioned difference
// between runs of the same inputs.
func digest(r *engine.Result) (string, error) {
	c := *r
	c.IdleCyclesSkipped, c.DrainCyclesUsed, c.DrainCyclesConfigured = 0, 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// pointDigests returns the digest of each result.
func pointDigests(rs []*engine.Result) ([]string, error) {
	out := make([]string, len(rs))
	for i, r := range rs {
		d, err := digest(r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// combine folds an ordered list of digests into one.
func combine(digests []string) string {
	sum := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	return hex.EncodeToString(sum[:])
}
