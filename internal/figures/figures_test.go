package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
)

// quickTableDigests pins every quick-mode table: the hex SHA-256 of its
// Text() at the default seed. Any change to a cell, header, title or note
// of any figure fails TestAllExperimentsProduceTables; a deliberate change
// to the model re-pins them together with an engine.Version bump.
var quickTableDigests = map[string]string{
	"fig2":        "1b2bf1e1e574ec4fc3eb41f638cb7a2caffa3cc21ce6f654d923705cc63c54e9",
	"fig3":        "3373f720ff0523376a1354158ca22a0775ef2619ac9fc4f88ff590fef1e58186",
	"fig4":        "e882ed85f1434ec15aa7824895ee7476d3652a9851f029cbb92d0f4ae529e866",
	"fig5":        "f8ea1616f3301a4f72fb7006507b4e97c5f15c56d97ec72b52ec9dddd05bb0d6",
	"fig6":        "a5c5d39a77c998981dcdf3c495dd077c22906237e4e642da4362240b95251011",
	"mac":         "8b8df0897ff716790b6756365bdbdd3c3e4237b51c26ad0f98fdc23dd1dfe6fe",
	"channel":     "92a35f010ff0bed97dc62d401b8c16a1253ac1d13de8170fbe088c4656f8dc9f",
	"routing":     "54d22c33601fd96304fdd0acd0c2021e42a4bc90a9e52e35e8f5e6e892adac25",
	"sleep":       "5ac2fef7193951688e30b878864f5bbd2f97482728b84a93d533245d57cfd7be",
	"density":     "3acb0254d89da9367757771abc8b257fb216457a43e18a9ea4ba0158f37e157e",
	"hybrid":      "3083ab31f845450246d9861ed6f66fc6382c023c3c08384e497b115f2e39721b",
	"readrt":      "c6c3e28160a8a2ea2248a9c2890130fbcbef208b3bfd697394c6f6ff37b839dc",
	"scale":       "0c6784f5fdbd12ba7d9dd19849411e6aefd74b41bdfc3d717a8e961f5edf7186",
	"channels":    "b864e508b407bad4f134732fd4e79afbb3f6135fb0b44d2a2babb818912f4102",
	"policies":    "7c2f4d3f1685a282a576273519f87f90b0d5361f073a8d5a9a8af09269c56fcf",
	"hybridsweep": "416adfd886881c7444a37e3be96fb7ad8c443ab0c8846a009631e643793fc087",
	"faults":      "30b34048f1e9cf85c607480cf0c839741d7f6fde4dd93078fb50eb44ea9f7a94",
}

// TestAllExperimentsProduceTables runs every experiment in quick mode
// once: tables must be well formed and match their pinned digests.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix in -short mode")
	}
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, Opts{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != id {
				t.Fatalf("table ID %q", tb.ID)
			}
			if len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("empty table %q", id)
			}
			for i, r := range tb.Rows {
				if len(r) != len(tb.Header) {
					t.Fatalf("%s row %d has %d cells, header %d", id, i, len(r), len(tb.Header))
				}
			}
			if !strings.Contains(tb.Text(), id) {
				t.Fatal("Text() missing table ID")
			}
			sum := sha256.Sum256([]byte(tb.Text()))
			if got, want := hex.EncodeToString(sum[:]), quickTableDigests[id]; got != want {
				t.Fatalf("%s table digest %s, want %s:\n%s", id, got, want, tb.Text())
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Opts{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestTextAlignsColumns(t *testing.T) {
	tb := &Table{
		ID:     "y",
		Title:  "t",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"aaaa", "1"}},
		Notes:  []string{"n"},
	}
	out := tb.Text()
	if !strings.Contains(out, "note: n") {
		t.Fatal("notes missing")
	}
	if !strings.Contains(out, "aaaa") {
		t.Fatal("row missing")
	}
}

// TestFig6AllApplicationsFavorWireless checks the paper's headline
// application-traffic claim in quick mode: every application row shows
// positive latency and energy gains.
func TestFig6AllApplicationsFavorWireless(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb, err := Fig6(Opts{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		lat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad latency cell %q", row[2])
		}
		en, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad energy cell %q", row[3])
		}
		if lat <= 0 || en <= 0 {
			t.Errorf("%s: gains %+.1f%% / %+.1f%% not positive", row[0], lat, en)
		}
	}
}
