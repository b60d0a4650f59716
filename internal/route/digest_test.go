package route

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// tableDigests pins the class tables of every preset the route package
// ships: SHA-256 over each class table's Next, its path costs, Root and
// all-pairs IsWireless relation, then TxWI (see digestClassTables). The
// tables store no path costs: pathCost derives them from Next, and they
// equal the distances the builders minimize. Any change to table
// construction that moves one entry fails here; a deliberate change must
// say so and recompute the digests.
var tableDigests = map[string]string{
	"1C/substrate/shortest":   "6d087c5d2a1d8657d44c1229a20b78fa69f348e42f48a50d6c2a49e43dcbadbd",
	"1C/interposer/shortest":  "3f5c09b25616abb337d5e242ceebacb4d3a71955dae2ba5cfafc076a13fae00b",
	"1C/wireless/shortest":    "a307489dab43ce49dc57fc551ee77add0871c38f9777b361643947da57304e71",
	"1C/hybrid/shortest":      "0784e18bbab326937086565b3b07a5853afe10ee45700b6c3e224fb8ee3e73dc",
	"4C/substrate/shortest":   "9a2f295a48b767a8c7cb304e5e0c8c4316ff4a290284e2f73588e493e399ef11",
	"4C/interposer/shortest":  "b2a71ae9837d9c5525c0f589edf9dd917bdb24677dc2b67cbfe1a064dd4addc4",
	"4C/wireless/shortest":    "9e7b0af8cfcbeb05e21f2d74521151c21e5e35bc0edb093fba517798761ae4e1",
	"4C/hybrid/shortest":      "3825ad8ad562b31649007240d5c94fd596c0c0a6f4f27302fef0ebf49bfb54b9",
	"8C/substrate/shortest":   "7b4262dbe5b2e909429203e1c1392e6ff39e0cce08397dd8580537981589c421",
	"8C/interposer/shortest":  "d00a2ea5940fadd4abcf8634342d3f8580e4bba8963e6cc215346220584fe9bc",
	"8C/wireless/shortest":    "3bcf017936025f1b51de6dfe4bff763bdf87fde6b9290f621b491c2f3ddd5695",
	"8C/hybrid/shortest":      "bcce56dfb1acb3cd321944765434398e7857d81b4c3430e3e00a9eaad5622879",
	"16C/substrate/shortest":  "ad96543867a74e4e9599cfe8e095d8b7d2cc5c893930cbae96d0d089185d44d8",
	"16C/interposer/shortest": "9dff43317631f0ea5bcdbc2e06694cc439cc8d4d114be3c28ec830333eb645a6",
	"16C/wireless/shortest":   "aa9b35ededfce4600e5ac81ac4f56c7669b6742691ee924a0be78742ed49216f",
	"16C/hybrid/shortest":     "0208989db6557dc13b1a887034ce2864c5e98089dfcca57b3616b15e6ca8de6c",
	"64C/substrate/shortest":  "0e66ec0d4edd421730385e39a4b13ef8d12b81cc882283ef7d6519b6e0508643",
	"64C/interposer/shortest": "cd9a32f43a296f40c06865e69108d9970f235da5699d7942c14151af2b8743b7",
	"64C/wireless/shortest":   "7cb7ccbb8e0cdc315232cc75d7ff8f07542dc011a81afe56d95a4e4c96d17873",
	"64C/hybrid/shortest":     "400b33870ee47bcbcee7df3cd046bf0abc7b0db1bc479181d858f4e86f45fa12",
	"1C/substrate/tree":       "7559e749a2081e0648ad31ed9f8cccddc6ffde600d7af913415af4480a53e46d",
	"1C/interposer/tree":      "7559e749a2081e0648ad31ed9f8cccddc6ffde600d7af913415af4480a53e46d",
	"1C/wireless/tree":        "35479215b387a62662426b06f2bec11a93d799154c307f626b6dd097bf3c597b",
	"1C/hybrid/tree":          "3bb480d0b2706cdb4e09107f1d48e872f5ca833fe226948ed5d06ab56dca76a7",
	"4C/substrate/tree":       "fcaeed56a1647e6876c912864cab394689a5d16fc4a60c8a60c5398c95297b6e",
	"4C/interposer/tree":      "3cdd48c0f5cc357c0c17a602cc111f6fc773340025da179fcd5e04392063413c",
	"4C/wireless/tree":        "ee00765320fb33e2415e2eb469465260311b68f9a09ca6d58b376afedc939fab",
	"4C/hybrid/tree":          "dbba7d4f7f9371ee48e7d91cf55d33d07cadc488017176d6da5d3af47ee9e938",
	"8C/substrate/tree":       "773a34bb9fce3639c0dcbf6ecf135cfb16453cc468eb2127eaa2eefb6bf1c7cf",
	"8C/interposer/tree":      "4ddd2bc3977738c325c7a39379c69aaa855de9c5b8a230ceb8e6d85eb5c00af6",
	"8C/wireless/tree":        "d2786c7115c09aa26f29d090c54fccac74bd81b9e066457958c7bbc3b1a56950",
	"8C/hybrid/tree":          "30693629e867663947260c3aff9fbe2221d4b45ed6cb1573f5cfafe83db95344",
	"16C/substrate/tree":      "8b617cc0d4bfd769508179cb96b531119b85d01887bf7c256064264afa8479a2",
	"16C/interposer/tree":     "0b145eb50fd14ef014f42b07bb87b5bfdf0325c4e05b6b00b6805f390ac24a36",
	"16C/wireless/tree":       "cf575508f92ae4d80ca1ace47d3c6a235b3baaaa6515b838b93c1870e7beec7f",
	"16C/hybrid/tree":         "289994977f57732c060ad86f023b9cd71a77f1cd356ba81961d98ce5791b3573",
}

// digestClassTables hashes everything BuildClasses produces that the engine
// and the deadlock check read, plus each table's path costs.
func digestClassTables(t *testing.T, g *topo.Graph, ct *ClassTables) string {
	h := sha256.New()
	var buf []byte
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	put := func(v int32) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	for _, tb := range ct.Classes {
		if tb == nil {
			put(-1)
			continue
		}
		cost := pathCost(t, g, tb)
		n := len(tb.Next)
		put(int32(n))
		put(int32(tb.Root))
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				put(int32(tb.Next[s][d]))
				put(cost[s][d])
				w := int32(0)
				if tb.IsWireless(sim.SwitchID(s), sim.SwitchID(d)) {
					w = 1
				}
				put(w)
			}
			flush()
		}
	}
	put(int32(len(ct.TxWI)))
	for _, row := range ct.TxWI {
		for _, v := range row {
			put(int32(v))
		}
		flush()
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// digestPresets lists the pinned configurations: every architecture at
// {1, 4, 8, 16, 64} chips under shortest-path routing, and at up to 16
// chips under tree routing.
func digestPresets() []config.Config {
	var cfgs []config.Config
	for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
		for _, chips := range []int{1, 4, 8, 16, 64} {
			if mode == config.RouteTree && chips > 16 {
				continue
			}
			for _, arch := range []config.Architecture{
				config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
			} {
				cfg := config.MustXCYM(chips, config.DefaultStacks(chips), arch)
				cfg.Routing = mode
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

func presetName(cfg config.Config) string {
	return fmt.Sprintf("%dC/%s/%s", cfg.Chips(), cfg.Arch, cfg.Routing)
}

// TestRouteTableDigests compares every pinned preset's class tables with
// the committed digests.
func TestRouteTableDigests(t *testing.T) {
	for _, cfg := range digestPresets() {
		name := presetName(cfg)
		g, err := topo.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ct, err := BuildClasses(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := digestClassTables(t, g, ct), tableDigests[name]; got != want {
			t.Errorf("%s: table digest %s, want %s", name, got, want)
		}
	}
}
