package main

import (
	"context"
	"fmt"
	"math/rand"

	"pixel"
)

// refSeed is the seed of the reference inputs that every run computes
// besides its own, whatever its workload seed.
const refSeed = 1

// pinnedDigests are the digests of the reference results, as the
// program computed them when the benchmark was written. A speed-only
// change leaves them alone; a run whose digest differs counts a wrong
// output, because the program's modelled or inferred results changed.
// A change meant to alter those results must update them here.
var pinnedDigests = map[string]uint64{
	"ref.infer-oracle": 0x5e106b43a13f6684,
	"ref.sweep":        0x665ee9a05dbd4efb,
	"ref.mc":           0x35bebc6a390b2b2b,
	"arch-model":       0xd7cb45a6367c62fe,
}

// refImages is how many images of each network the reference oracle
// runs.
const refImages = 16

// buildReference computes the reference oracle outputs and
// Monte-Carlo reports from refSeed. The reference sweep results are
// the served responses to the first sweepDigestGrids grids of the
// sequence, which are drawn from refSeed too.
func (in *inputs) buildReference(nproc int) error {
	rng := rand.New(rand.NewSource(mixSeed(refSeed, 1)))
	for _, name := range []string{"lenet", "tiny"} {
		p, err := newImagePool(name, refImages, rng)
		if err != nil {
			return err
		}
		for _, out := range p.outputs {
			vals := make([]float64, len(out))
			for i, v := range out {
				vals[i] = float64(v)
			}
			in.refInfer.fold(vals...)
		}
	}
	for k := range mcKinds {
		spec := pixel.RobustnessSpec{
			Network: "lenet",
			Design:  pixel.OO,
			Sigmas:  mcSigmas,
			Trials:  1,
			Seed:    mixSeed(refSeed, 3),
			Workers: nproc,
		}
		if k == 1 {
			spec.Protection = &pixel.ProtectionSpec{Scheme: "parity", Retries: 1}
		}
		r, err := pixel.RobustnessContext(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("mc reference %s at the reference seed: %w", mcKinds[k], err)
		}
		in.refMC.foldReport(r)
	}
	return nil
}

// checkDigests prints the digests of everything simulated and compares
// the reference ones with their pinned values. The workload seed's
// digests (its oracle outputs and Monte-Carlo references) are printed
// for comparing runs of one seed.
func (e *env) checkDigests(rep *report) {
	for _, p := range []struct {
		name string
		d    *digest
	}{{"infer-oracle", &e.in.inferDigest}, {"mc", &e.in.mcDigest}} {
		rep.printf("digest %-16s %016x (%d values, seed %d)", p.name, p.d.h, p.d.n, e.in.seed)
	}
	for _, p := range []struct {
		name string
		d    *digest
	}{{"ref.infer-oracle", &e.in.refInfer}, {"ref.sweep", &e.sweep.digest}, {"ref.mc", &e.in.refMC}, {"arch-model", archDigest()}} {
		want := pinnedDigests[p.name]
		verdict := "matches its pinned value"
		if p.d.h != want {
			verdict = fmt.Sprintf("DIFFERS from its pinned value %016x", want)
			rep.wrongf("digest %s is %016x, pinned %016x: simulated results changed", p.name, p.d.h, want)
		}
		rep.printf("digest %-16s %016x (%d values, reference seed %d) %s", p.name, p.d.h, p.d.n, refSeed, verdict)
	}
}
