package main

import (
	"fmt"
	"math/rand/v2"

	"maya"
	"maya/internal/cuda"
	"maya/internal/framework"
	"maya/internal/search"
	"maya/internal/workload"
)

// setup is one (model, cluster, global batch) a workload draws
// recipes on.
type setup struct {
	name    string
	cluster maya.Cluster
	model   maya.Transformer
	batch   int
	// preset names the model on the serve wire format.
	preset string
	// classHinted hides the workload's selective-launch ranks, so
	// capture takes the verified class-hint path instead.
	classHinted bool
}

func (s setup) problem() search.Problem {
	return search.Problem{Model: s.model, Cluster: s.cluster, GlobalBatch: s.batch}
}

func (s setup) flops() float64 { return s.model.TrainFLOPsPerIter(s.batch) }

// recipe is one training recipe on one setup.
type recipe struct {
	setup *setup
	cfg   maya.MegatronConfig
}

func (r recipe) String() string {
	c := r.cfg
	return fmt.Sprintf("%s/tp%d/pp%d/mb%d/v%d/sp%t/re%t/do%t",
		r.setup.name, c.TP, c.PP, c.MicroBatches, c.VirtualStages, c.SeqParallel, c.ActRecompute, c.DistOptimizer)
}

// workload builds the recipe's training job.
func (r recipe) workload() (maya.Workload, error) {
	w, err := maya.NewMegatron(r.cfg)
	if err != nil {
		return nil, err
	}
	if r.setup.classHinted {
		return classHinted{m: w.(*framework.Megatron)}, nil
	}
	return w, nil
}

// validRecipes lists the distinct valid recipes of the Table-5
// search space on the setup, in the space's enumeration order.
// Invalid points are skipped; recipes that run out of memory stay.
func validRecipes(s *setup) []recipe {
	prob := s.problem()
	seen := map[string]bool{}
	var out []recipe
	for _, k := range maya.MegatronSearchSpace().Enumerate() {
		cfg, ok := prob.Build(k)
		if !ok {
			continue
		}
		r := recipe{setup: s, cfg: cfg}
		if key := r.String(); !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// stratifiedRounds deals the recipes into rounds. Recipes sharing a
// setup, a (TP, PP, microbatch) shape and the two memory knobs
// (activation recompute, distributed optimizer) form a stratum: the
// shape sets most of a recipe's cost and the memory knobs decide
// whether it runs out of memory, which makes it nearly free. Every
// round holds one unseen recipe of every stratum that still has one,
// in seeded order, so a long prefix of the stream has nearly the same
// mix for every seed; the seed picks the remaining knobs (virtual
// stages, sequence parallelism) and the order.
func stratifiedRounds(recipes []recipe, rng *rand.Rand) [][]recipe {
	type shape struct {
		setup      *setup
		tp, pp, mb int
		re, do     bool
	}
	var order []shape
	groups := map[shape][]recipe{}
	for _, r := range recipes {
		k := shape{r.setup, r.cfg.TP, r.cfg.PP, r.cfg.MicroBatches, r.cfg.ActRecompute, r.cfg.DistOptimizer}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var rounds [][]recipe
	for _, k := range order {
		g := groups[k]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for i, r := range g {
			if i == len(rounds) {
				rounds = append(rounds, nil)
			}
			rounds[i] = append(rounds[i], r)
		}
	}
	for _, round := range rounds {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	}
	return rounds
}

// newRNG returns the seeded generator of one input stream; distinct
// streams of one run use distinct tags.
func newRNG(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, tag))
}

// classHinted presents a Megatron job without its selective-launch
// ranks (workload.SelectiveLauncher), so the pipeline captures it by
// verified structural deduplication (workload.ClassHinter): one
// representative per pipeline stage plus a verification sample.
type classHinted struct{ m *framework.Megatron }

func (h classHinted) Name() string                        { return h.m.Name() }
func (h classHinted) World() int                          { return h.m.World() }
func (h classHinted) Run(rank int, dev cuda.Device) error { return h.m.Run(rank, dev) }
func (h classHinted) CommGroups() map[uint64][]int        { return h.m.CommGroups() }
func (h classHinted) RankClasses() [][]int                { return h.m.RankClasses() }

func (h classHinted) Probe() workload.Workload {
	if inner := h.m.Probe(); inner != workload.Workload(h.m) {
		return classHinted{m: inner.(*framework.Megatron)}
	}
	return h
}
