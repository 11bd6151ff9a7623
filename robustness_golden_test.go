package pixel

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestRobustnessGoldenSaturated pins whole LeNet reports at a σ where
// every trial is perturbed at the saturated bit-error rate (p = 0.5 on
// each exposed datapath), so the dense-flip path of the fault sampler
// — one draw per flipped bit — is fixed to the last bit. Each digest
// is the SHA-256 of the report's JSON encoding; a change to any drawn
// gap, any counter or any statistic moves it.
func TestRobustnessGoldenSaturated(t *testing.T) {
	cases := []struct {
		design     Design
		protection string
		digest     string
	}{
		{OE, "none", "de1555cb5e7d8e82b0145850b5d1817b0ff3c5851c2b052cc0f61c32a2a7c0dd"},
		{OE, "parity:1", "a57590c22a6bb572783ef03d1b7f03c1d07dbe180899c0ecbe631f19cc27af41"},
		{OE, "tmr", "b58171c3b392ef6f4cda2daa865e92060643cdaedd8d35565b7e147af1a80924"},
		{OE, "guardband", "9adedb7dd0361817911005a38d746375a3fccb893c3700be4ce6b1d4df47fca4"},
		{OO, "none", "1ca1f994da9ccc0f59185e27089e27c2ac164390ecf048c284801f94d675fa33"},
		{OO, "parity:1", "5945df55e5b9c6e18e35bf492f89687187fee5b0d73fcf46c47cee52aabfa96c"},
		{OO, "tmr", "408d457eef11a6273af661fa6eda433620ef287bf4d6fa1b9249f9bb45f8a0db"},
		{OO, "guardband", "2c7c866d9a026b6896d77e83ad393085ad37981a4d4041ad86b589a1485f44bf"},
	}
	for _, tc := range cases {
		prot, err := ParseProtection(tc.protection)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RobustnessContext(context.Background(), RobustnessSpec{
			Network:    "lenet",
			Design:     tc.design,
			Sigmas:     []float64{0, 128},
			Trials:     2,
			Seed:       11,
			Workers:    2,
			Protection: prot,
		})
		if err != nil {
			t.Fatalf("%v/%s: %v", tc.design, tc.protection, err)
		}
		if rep.Points[1].CleanTrials != 0 || rep.Points[1].MeanInjectedBER == 0 {
			t.Fatalf("%v/%s: σ=128 not saturated: %+v", tc.design, tc.protection, rep.Points[1])
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%v/%s: report digest %s, want %s", tc.design, tc.protection, got, tc.digest)
		}
	}
}
