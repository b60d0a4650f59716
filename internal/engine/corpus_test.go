package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// corpusFile is the golden Result/trace corpus: for every configuration of
// the determinism matrix (determinismParams), the SHA-256 of its canonical
// Result JSON (resultJSON, fast-forward telemetry zeroed) and of its
// packet+fault trace, one "<hex digest>  <kind>/<config>" line each, where
// <config> is the matrix subtest name. Its "engine-version" line names the
// engine.Version the digests were generated at. The matrix tests compare
// execution modes with each other; the corpus compares every mode with the
// bytes of a known commit, so a behavior-neutral refactor that moves a
// turn, a draw or a float addition shows here even when every mode moves
// alike.
const corpusFile = "testdata/corpus.sha256"

// corpusShards are the engine shard counts every corpus entry must
// reproduce its pinned digests at.
var corpusShards = []int{0, 2, 4}

// TestCorpusDigests runs every matrix configuration at each corpusShards
// count and compares both digests with corpusFile. The digests move only
// together with an engine.Version bump: a change that moves one changes
// Results, so it bumps the version, explains the delta, and rewrites the
// file with the lines this test logs.
func TestCorpusDigests(t *testing.T) {
	want := readDigests(t, corpusFile)
	if want["engine-version"] != Version {
		t.Fatalf("%s was generated at %q, the engine is %q: regenerate it with the lines this test logs",
			corpusFile, want["engine-version"], Version)
	}
	var lines []string
	for _, p := range determinismParams() {
		p := p
		t.Run(p.Cfg.Name+"/"+string(p.Cfg.Channel), func(t *testing.T) {
			name := strings.TrimPrefix(t.Name(), "TestCorpusDigests/")
			for _, shards := range corpusShards {
				sp := p
				sp.Cfg.EngineShards = shards
				trace := sha256.New()
				sp.Trace = trace
				res := sha256.Sum256([]byte(resultJSON(t, mustRun(t, sp))))
				got := map[string]string{
					"result/" + name: hex.EncodeToString(res[:]),
					"trace/" + name:  hex.EncodeToString(trace.Sum(nil)),
				}
				for _, key := range []string{"result/" + name, "trace/" + name} {
					if got[key] != want[key] {
						t.Errorf("%s (engine_shards %d): digest %s, pinned %q", key, shards, got[key], want[key])
					}
					if shards == corpusShards[0] {
						lines = append(lines, fmt.Sprintf("%s  %s", got[key], key))
					}
				}
			}
		})
	}
	if t.Failed() {
		t.Logf("digests at this commit:\n%s  engine-version\n%s", Version, strings.Join(lines, "\n"))
	}
}
