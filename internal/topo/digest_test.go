package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"wimc/internal/config"
)

// graphDigests pins the SHA-256 of json.Marshal(Build(cfg)) for every
// configuration of digestConfigs: nodes, edges (in order), endpoints,
// stacks and the WI numbering. Any change to construction that moves one
// field fails here; a deliberate change must say so and recompute them.
var graphDigests = map[string]string{
	"1C/substrate/default":       "aa67cc55d508af9fa436319ee43d6cefa8169036910d605ed44869e4b2d4c282",
	"1C/substrate/boundary0.5":   "4aa4a813b1c24e2beeb5460ab0e440d2def4a76c030cb09b84df53896af7acd9",
	"1C/interposer/default":      "0622f56a0139beba5aa051bca1b03d6b74b0718296b7e7afedba2570830598a5",
	"1C/interposer/boundary0.5":  "0634b9109cb22207ed4dcaa6d5ed1176bf7beb7c6da73c95b044744458c87dbb",
	"1C/wireless/default":        "8a4a5951fac7e6372668d89e9dfbb8cfd4a19ff94ae09e0635bb27b1af74bc49",
	"1C/wireless/boundary0.5":    "bdc67c65406848f9dcc079c014bf1279f8b871426269903759f3f3509cab8211",
	"1C/wireless/cpw4":           "d69a936dc3054262ec76712b166f8698175330ee2d988a31107199ea75c7bdd6",
	"1C/hybrid/default":          "60f9382314493ff8d5ac6c32c9fc861455be9b3b6dcdac9970e164f6e728b876",
	"1C/hybrid/boundary0.5":      "71b694fd087108e62bf22b11a000d51b89db6dea1b379774d659b17aed821e04",
	"1C/hybrid/cpw4":             "9e47c96a380dbadaa5f5b139cbc0d4ee99e4bfc1eac29d5c6fa62d06fde29d71",
	"4C/substrate/default":       "b4ffeadd83f1af88fe5f56754163be5970f23b739ce79848c42bb00e0c3f20d1",
	"4C/substrate/boundary0.5":   "9174c8cd205ec1c6ed664618c644e7cbde8b6e9f5afe43a363affc876f76a9ba",
	"4C/interposer/default":      "4f692c4e5b0b85523717d33422e6162a42cf676c647de23c6aced51d83802535",
	"4C/interposer/boundary0.5":  "eae0f9cec32da441aa2202a1b9f396059a3f74a45b1da0b1b7353e8da75eb58b",
	"4C/wireless/default":        "d28332066e15570c604881cd968029eeb85fade2e940d3051efec894af1e4e64",
	"4C/wireless/boundary0.5":    "e6576a0d21d2e0332acabf0b1fe87cc1331fa7cf65c267f40f3543ee9d374c7c",
	"4C/wireless/cpw4":           "92d1e83c4a53d5f7749ebd1ea8feb2c3192ca576b110d2b5e24e57452303917f",
	"4C/hybrid/default":          "1dcfaab38b9442746954be4dfc27d7f5ad07489b2ee26c2364c6de0c91475b5d",
	"4C/hybrid/boundary0.5":      "2729e78c5dfa1ee2d686e597c67d3360f14304d319bebc4525b52df6833d9362",
	"4C/hybrid/cpw4":             "26c5f7b6d2d7180cad1715c3f7a949c2fbcadd150f4c7cc693e57ce7de1e2575",
	"8C/substrate/default":       "80134faad1238f9085b200db86e77407463ac7b9d9f7401eb8ff8e697f897bb6",
	"8C/substrate/boundary0.5":   "a94e47f65a36778af2664e7c435ff59f57cbd647cb2229578f51f91abb6e9fb7",
	"8C/interposer/default":      "57e70c5cebb61a755d7680fa92655b43ef72f026150b84012a3dfa28751edf1b",
	"8C/interposer/boundary0.5":  "141b903016230efb9b7aaa5e4876b4cbd27b2283a8bd258314c396288289c92f",
	"8C/wireless/default":        "57a8045a2c811ae09e151ce3d099e6a2a7f476dfa9469a9ac3e1705fbc10ab12",
	"8C/wireless/boundary0.5":    "690d646d5dbd6c2a37cb66355933a0f0a9bf7589eef269f1fb100ececc655a2e",
	"8C/wireless/cpw2":           "facc92f7ae3d8328e4ffc44ae81c70a73ebe6fe5f9d2e1ffac432a34a08cd50f",
	"8C/hybrid/default":          "2d28edb316e8f9651d827e7ae089896c8fa1595276ceecff8aeada5aa6b7305a",
	"8C/hybrid/boundary0.5":      "17e4fc4faea4f157b146a2ac774eaf4ac55ed7200000d12f77a38f79e7f65c26",
	"8C/hybrid/cpw2":             "45dcaab056c06ca468f2e71cd6e83614dec5b6c6d07a252ff7ba8cf947509940",
	"16C/substrate/default":      "255d702512bdf2c182bc03e4de3429e8fe7c493c7da7aeadf67d14274b91f506",
	"16C/substrate/boundary0.5":  "84b721f88662954321010f357579f14df6696f340500a37aaacb7c211cefef42",
	"16C/interposer/default":     "e558fc39112b098cf3cedebb46cde387a7cbe903cf0ca8f19f264cc8eea9b61e",
	"16C/interposer/boundary0.5": "c7e58244d0d18cd32b64e88b6f827d8340d7f42540017bbdd660ea08147f100d",
	"16C/wireless/default":       "8e98fafedeb539fdd1412216da70385157017e3a8cf4f5fe9039fffdcf6d6144",
	"16C/wireless/boundary0.5":   "4e16e57deebde07d6876500db7e3250ce5ed7987f0d7df8f2818307564604c12",
	"16C/wireless/cpw4":          "4b78320b5407a3c299737434e006756d051ad18eb59635ec7d13386f6a96c0fe",
	"16C/hybrid/default":         "71f228274dbc4a1b463ae5582cdf9580e5631c3c690f01a60c97d1d2c95c437e",
	"16C/hybrid/boundary0.5":     "d2c4bd3a6c199b111980a175f93a6e07d86205a3192dfe5ff61eef5df083f3d2",
	"16C/hybrid/cpw4":            "f9fc70f33e72c25dd6a6b28ab1dcfb94655a59aa22646ffac1f978d76c2e9a12",
	"32C/substrate/default":      "2372f14a8b0cc713460e08ef28c254aee06c9ea604383006ad987f251255ccb0",
	"32C/substrate/boundary0.5":  "2c501645582ea749851e1016aeb6eafde9c6361dd876b36083d04a68d5d4ff51",
	"32C/interposer/default":     "bba0e80d1bf8129a6012dbb38219eddb998bc1e19a6982a05a87f0df326c9047",
	"32C/interposer/boundary0.5": "770dde42c1858f004e2a000a071b5f9178577cb14a4cdfefccf312f1c8208d8b",
	"32C/wireless/default":       "7c21b295df93a5f8ce8c31e43e61fbe6577ea8bf7fb5fe588fdc02da5a4c8a07",
	"32C/wireless/boundary0.5":   "9da582100132bff1fb62e8bfdc162e142e8cd0a6d8606e7a81bb7a014e1a61fc",
	"32C/wireless/cpw4":          "3e55cba80cdb84b4897000421981d50a6c07a7b2db245acf1ba8fc98e962dcba",
	"32C/hybrid/default":         "b831ff02291edd5417889d206b456f56a69f946f1dc3b8981df75d05addeca86",
	"32C/hybrid/boundary0.5":     "d2f67277abb6f2a8df367d61be8a0dfdfb3b045cfcb6bf2011b6317ee7849af7",
	"32C/hybrid/cpw4":            "a75c8a6e23e82745a3bdb6b53afd6fd06335d59d6039528745d7fc96eb11c7c1",
	"64C/substrate/default":      "4d4fb091e97eccb655cf0d0e20a9b1565feb79ea4a2d03d821ed53b691bfb329",
	"64C/substrate/boundary0.5":  "e01e880efd2585c5070a61acf3e56d06fd0430d9d9b06b75bf189ed0896f3a1c",
	"64C/interposer/default":     "5bb3984c7132995aef31cb6c394f05611b09609bb742076de776c34b28e426c4",
	"64C/interposer/boundary0.5": "1382d9fdd3218e772243c667b3dbc96c10ee998bed7f9342df4f5802042d9e60",
	"64C/wireless/default":       "b57c4d4b82cdc52149fda382cd9985cb6b624add516bf9243352318c537967f9",
	"64C/wireless/boundary0.5":   "fed1c00f1448c18078ade483d5f8c30088989396f186266a095a077595088220",
	"64C/wireless/cpw4":          "8de56c2387abd3ca76d0856728609fa14ba54e7cfa9eb0916ef171042762be39",
	"64C/hybrid/default":         "00e7a28600a7db7cc2ac79225a862b9b0477dd59f5964d1e329c87b8d8b3a30a",
	"64C/hybrid/boundary0.5":     "3cfdcc04d42f4a173db0df97561949b470e005344500464c7f02248b43fa92d4",
	"64C/hybrid/cpw4":            "39ff94c653c6a01e9c1ecb3650aff35c5363525f86a73ba66854f3363f8aa64c",
}

// digestCase is one pinned configuration and its digest key.
type digestCase struct {
	name string
	cfg  config.Config
}

// digestConfigs lists the pinned configurations: every architecture at
// {1, 4, 8, 16, 32, 64} chips with the preset defaults and with half the
// interposer boundary, plus the wireless and hybrid presets at a denser WI
// deployment (4 cores per WI, 2 on the 8-core chips of the 8-chip preset).
func digestConfigs() []digestCase {
	var cases []digestCase
	for _, chips := range []int{1, 4, 8, 16, 32, 64} {
		for _, arch := range []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
		} {
			preset := config.MustXCYM(chips, config.DefaultStacks(chips), arch)
			name := fmt.Sprintf("%dC/%s/", chips, arch)
			cases = append(cases, digestCase{name + "default", preset})

			cfg := preset
			cfg.InterposerBoundaryFr = 0.5
			cases = append(cases, digestCase{name + "boundary0.5", cfg})

			if arch == config.ArchWireless || arch == config.ArchHybrid {
				cfg := preset
				cfg.CoresPerWI = 4
				if chips == 8 {
					cfg.CoresPerWI = 2
				}
				cases = append(cases, digestCase{fmt.Sprintf("%scpw%d", name, cfg.CoresPerWI), cfg})
			}
		}
	}
	return cases
}

// TestGraphDigests compares every pinned configuration's graph with the
// committed digests.
func TestGraphDigests(t *testing.T) {
	for _, c := range digestConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		if got, want := hex.EncodeToString(sum[:]), graphDigests[c.name]; got != want {
			t.Errorf("%s: graph digest %s, want %s", c.name, got, want)
		}
	}
}
