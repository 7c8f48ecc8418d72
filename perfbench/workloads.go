package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	parclass "repro"
	"repro/internal/serve"
)

var workloadFuncs = map[string]func(*bench) error{
	"train-sprint": (*bench).trainSprintWorkload,
	"train-hist":   (*bench).trainHistWorkload,
	"serve-forest": (*bench).serveForestWorkload,
	"serve-ingest": (*bench).serveIngestWorkload,
}

// Every workload reports every end-to-end metric. A workload's focus
// sections carry most of its time; the other sections run small (training
// on the F7-A32-D20K companion data, serving the model the workload just
// trained) so every figure exists on every workload. A traced run reports
// the layers of every section, so each per-layer metric describes the same
// work as the end-to-end metric it explains on that workload.

const (
	heldOffset = 1_000_003 // held-out rows come from seed+heldOffset
	// trafficRows held-out rows feed the request pools; the next
	// serve.DefaultIngestWindow rows refill the ingest window before the
	// retrain section.
	trafficRows = 8192
	// sprintParts spreads train-sprint's exact-engine builds over this
	// many rounds, one share of the engines per round.
	sprintParts = 2
)

// setup is one workload's inputs and running server.
type setup struct {
	data   *parclass.Dataset // focus training data
	comp   *parclass.Dataset // F7-A32-D20K companion training data
	held   *parclass.Dataset // held-out rows in data's schema
	sv     *server
	mix    *traffic
	forest *traffic
	served parclass.Predictor // loaded model, nil until trained
	genS   float64
}

func synthetic(attrs, tuples int, seed int64) (*parclass.Dataset, error) {
	return parclass.Synthetic(parclass.SyntheticConfig{Function: 7, Attrs: attrs, Tuples: tuples, Seed: seed})
}

// setUp generates the inputs, starts the server and, when train is set,
// trains and loads the served model. It runs SetupRepeats times and
// reports the median as setup_s; every repeat must produce the same served
// predictions.
func (b *bench) setUp(attrs, tuples int, withForest bool, train func(st *setup) (parclass.Predictor, error)) (*setup, error) {
	var (
		st   *setup
		prev [][]byte // the previous set-up's expected replies
	)
	for r := 0; r < b.wl.SetupRepeats; r++ {
		if st != nil {
			// Only the expected replies outlive a set-up, so the next one
			// starts with the previous datasets collectable.
			prev = st.expected()
			st.sv.stop()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := b.setUpOnce(attrs, tuples, withForest, train)
		if err != nil {
			return nil, err
		}
		b.res.add("setup_s", "s", time.Since(t0).Seconds(), 1)
		b.res.add("synth.gen_s", "s", s.genS, 1)
		if prev != nil {
			b.res.check(sameReplies(prev, s.expected()), "served predictions differ between set-ups")
		}
		st = s
	}
	return st, nil
}

// expected is every reply fragment the served model must produce.
func (st *setup) expected() [][]byte {
	var out [][]byte
	for _, t := range []*traffic{st.mix, st.forest} {
		if t != nil {
			out = append(out, t.expect...)
		}
	}
	return out
}

func sameReplies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (b *bench) setUpOnce(attrs, tuples int, withForest bool, train func(st *setup) (parclass.Predictor, error)) (*setup, error) {
	t0 := time.Now()
	st := &setup{}
	var err error
	if st.data, err = synthetic(attrs, tuples, b.seed); err != nil {
		return nil, err
	}
	if st.held, err = synthetic(attrs, trafficRows+serve.DefaultIngestWindow, b.seed+heldOffset); err != nil {
		return nil, err
	}
	st.comp = st.data
	if attrs != 32 || tuples != 20_000 {
		if st.comp, err = synthetic(32, 20_000, b.seed); err != nil {
			return nil, err
		}
	}
	st.genS = time.Since(t0).Seconds()
	mc := b.cfg.Traffic["mix"]
	st.mix = newTraffic(st.held.Table(), mc.Bodies, mc.RequestRows, true)
	if withForest {
		fc := b.cfg.Traffic["forest"]
		st.forest = newTraffic(st.held.Table(), fc.Bodies, fc.RequestRows, false)
	}
	if st.sv, err = startServer(); err != nil {
		return nil, err
	}
	if train != nil {
		m, err := train(st)
		if err == nil {
			err = st.load(m)
		}
		if err != nil {
			st.sv.stop()
			return nil, err
		}
	}
	return st, nil
}

// load publishes m and records the in-process answers every predict
// response must match.
func (st *setup) load(m parclass.Predictor) error {
	for _, name := range []string{"", retrainModel} {
		if _, err := st.sv.s.Load(name, m, "perfbench"); err != nil {
			return err
		}
	}
	st.served = m
	for _, t := range []*traffic{st.mix, st.forest} {
		if t == nil {
			continue
		}
		if err := t.expectFrom(m); err != nil {
			return fmt.Errorf("in-process predict: %w", err)
		}
	}
	return nil
}

// runRounds runs every step once per round, so a stretch of host noise
// lands in a minority of every metric's values rather than in all of one
// metric's.
func (b *bench) runRounds(steps ...func(r int) error) error {
	rt := b.startRuntime()
	for r := 0; r < b.wl.Rounds; r++ {
		for _, step := range steps {
			if err := step(r); err != nil {
				return err
			}
		}
	}
	rt.finish(b)
	return nil
}

// companionStride separates the seeds of the per-round companion sets.
const companionStride = 2_000_003

// companion is round r's F7-A32-D20K companion training set. Each round
// trains on its own seed-derived set, so a companion train_s median spans
// several tree shapes rather than resting on one seed's tree.
func (b *bench) companion(st *setup, r int) (*parclass.Dataset, error) {
	if r == 0 {
		return st.comp, nil
	}
	return synthetic(32, 20_000, b.seed+int64(r)*companionStride)
}

// companionTraining is the small exact-engine and HIST training a
// workload runs outside its focus, once per round.
func (b *bench) companionTraining(st *setup, sp *sprint, hs *hist) func(r int) error {
	return func(r int) error {
		ds, err := b.companion(st, r)
		if err != nil {
			return err
		}
		if sp != nil {
			if err := sp.round(b, ds, 0, 1); err != nil {
				return err
			}
		}
		if hs != nil {
			return hs.round(b, ds)
		}
		return nil
	}
}

// serveMix loads the workload's model on first use and runs one round of
// the ingest mix and the retrains.
func (b *bench) serveMix(st *setup, mix *load, rt *retrainer, model func() parclass.Predictor) func(r int) error {
	return func(r int) error {
		if st.served == nil {
			if err := st.load(model()); err != nil {
				return err
			}
		}
		if err := mix.round(b, b.slice("mix")); err != nil {
			return err
		}
		return rt.round(b, mix.c, b.wl.RetrainCalls)
	}
}

// finish reports the end-of-run figures of the serve sections and, in a
// traced run, the layers of every build and serve section.
func (b *bench) finish(rt *retrainer, loads []*load, all ...map[string]*builds) error {
	if b.trace {
		for _, bs := range all {
			b.reportLayers(bs)
		}
		if err := rt.layers(b); err != nil {
			return err
		}
	}
	for _, l := range loads {
		if err := l.finish(b); err != nil {
			return err
		}
	}
	return nil
}

// train-sprint: F7-A32-D100K through every exact engine; the tree they
// all grow is then served with the ingest mix.
func (b *bench) trainSprintWorkload() error {
	st, err := b.setUp(32, 100_000, false, nil)
	if err != nil {
		return err
	}
	defer st.sv.stop()
	sp, hs := newSprint(), newHist(st.held, false)
	mix := b.newLoad(st, st.mix, "mix", true, true)
	rt := &retrainer{st: st}
	err = b.runRounds(
		func(r int) error { return sp.round(b, st.data, r%sprintParts, sprintParts) },
		b.companionTraining(st, nil, hs),
		b.serveMix(st, mix, rt, func() parclass.Predictor { return sp.first }),
	)
	if err != nil {
		return err
	}
	return b.finish(rt, []*load{mix}, sp.builds, hs.builds)
}

// train-hist: F7-A9-D1000K as one HIST tree and an 8-member HIST forest;
// the HIST tree of the first round is then served with the ingest mix.
func (b *bench) trainHistWorkload() error {
	st, err := b.setUp(9, 1_000_000, false, nil)
	if err != nil {
		return err
	}
	defer st.sv.stop()
	hs, sp := newHist(st.held, true), newSprint()
	mix := b.newLoad(st, st.mix, "mix", true, true)
	rt := &retrainer{st: st}
	err = b.runRounds(
		func(int) error { return hs.round(b, st.data) },
		b.companionTraining(st, sp, nil),
		b.serveMix(st, mix, rt, func() parclass.Predictor { return hs.tree }),
	)
	if err != nil {
		return err
	}
	return b.finish(rt, []*load{mix}, hs.builds, sp.builds)
}

// serve-forest: a 25-tree forest on F7-A32-D20K answering 256-row
// values_rows requests; the ingest figures come from a short ingest mix on
// the same server.
func (b *bench) serveForestWorkload() error {
	st, err := b.setUp(32, 20_000, true, func(st *setup) (parclass.Predictor, error) {
		return parclass.TrainForest(st.data, parclass.Options{
			Algorithm: parclass.Hist, Procs: b.procs, Trees: 25,
			SampleFrac: 0.25, FeatureFrac: 0.7, ForestSeed: b.cfg.ForestSeed,
		})
	})
	if err != nil {
		return err
	}
	defer st.sv.stop()
	forest := b.newLoad(st, st.forest, "forest", true, false)
	mix := b.newLoad(st, st.mix, "mix", false, true)
	rt := &retrainer{st: st}
	sp, hs := newSprint(), newHist(st.held, false)
	err = b.runRounds(
		func(int) error { return forest.round(b, b.slice("forest")) },
		b.serveMix(st, mix, rt, nil),
		b.companionTraining(st, sp, hs),
	)
	if err != nil {
		return err
	}
	return b.finish(rt, []*load{forest, mix}, sp.builds, hs.builds)
}

// serve-ingest: one MWK tree on F7-A32-D20K under 16-row predicts
// interleaved 1:1 with 16-row bulk ingests, plus synchronous retrains.
func (b *bench) serveIngestWorkload() error {
	st, err := b.setUp(32, 20_000, false, func(st *setup) (parclass.Predictor, error) {
		return parclass.Train(st.data, parclass.Options{Algorithm: parclass.MWK, Procs: b.procs})
	})
	if err != nil {
		return err
	}
	defer st.sv.stop()
	mix := b.newLoad(st, st.mix, "mix", true, true)
	rt := &retrainer{st: st}
	sp, hs := newSprint(), newHist(st.held, false)
	err = b.runRounds(
		b.serveMix(st, mix, rt, nil),
		b.companionTraining(st, sp, hs),
	)
	if err != nil {
		return err
	}
	return b.finish(rt, []*load{mix}, sp.builds, hs.builds)
}
