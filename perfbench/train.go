package main

import (
	"fmt"
	"runtime"
	"time"

	parclass "repro"
	"repro/internal/tree"
)

type engine struct {
	name  string
	alg   parclass.Algorithm
	procs int
}

// sprintEngines are the paper's exact schemes: serial at P=1 is the plain
// single-threaded baseline, the four parallel schemes run at P=procs.
func sprintEngines(procs int) []engine {
	return []engine{
		{"serial", parclass.Serial, 1},
		{"basic", parclass.Basic, procs},
		{"fwk", parclass.FWK, procs},
		{"mwk", parclass.MWK, procs},
		{"subtree", parclass.Subtree, procs},
	}
}

// builds collects one engine's program-side readings over a run; the
// wall times go straight into the results.
type builds struct {
	setup, sort, eval, winner, split, bin []float64
	barrier, idle, skew, eff              []float64
	mallocs, allocMB                      []float64
	nodes, levels                         int
	n                                     int
}

// timed runs one build of engine name after a collection, so every build
// starts from the same heap state, and records its wall time as
// train_s.<name>. With the layer trace on it also counts the build's
// allocations; ReadMemStats stops the world, so end-to-end runs skip it.
func (b *bench) timed(name string, bs *builds, fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	if b.trace {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	b.res.attempted++
	if err != nil {
		b.res.failed++
		return err
	}
	if name != "" {
		b.res.add("train_s."+name, "s", wall, 1)
	}
	bs.n++
	if b.trace {
		runtime.ReadMemStats(&m1)
		bs.mallocs = append(bs.mallocs, float64(m1.Mallocs-m0.Mallocs))
		bs.allocMB = append(bs.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	return nil
}

// record keeps a single tree's program-side counters: Model.Timings and
// the BuildTrace totals.
func (bs *builds) record(m *parclass.Model) {
	tm := m.Timings()
	bs.setup = append(bs.setup, tm.Setup.Seconds())
	bs.sort = append(bs.sort, tm.Sort.Seconds())
	if bt := m.BuildTrace(); bt != nil {
		tot := bt.Totals()
		bs.eval = append(bs.eval, tot.Eval)
		bs.winner = append(bs.winner, tot.Winner)
		bs.split = append(bs.split, tot.Split)
		bs.bin = append(bs.bin, tot.Bin)
		bs.barrier = append(bs.barrier, tot.Barrier)
		bs.idle = append(bs.idle, tot.Idle)
		bs.skew = append(bs.skew, bt.Skew())
		bs.eff = append(bs.eff, bt.Efficiency())
	}
	st := m.Stats()
	bs.nodes, bs.levels = st.Nodes, st.Levels
}

// sprint builds with the exact engines, after one untimed warm-up build.
// Every tree must equal the serial tree of the same data.
type sprint struct {
	builds map[string]*builds
	warm   bool
	ref    *tree.Tree // the serial tree of the data being built
	first  *parclass.Model
}

func newSprint() *sprint { return &sprint{builds: make(map[string]*builds)} }

// round builds ds with the engines whose index is part modulo parts; the
// serial engine is in part 0, which must come first for each dataset.
func (s *sprint) round(b *bench, ds *parclass.Dataset, part, parts int) error {
	if !s.warm {
		if _, err := parclass.Train(ds, parclass.Options{Algorithm: parclass.MWK, Procs: b.procs}); err != nil {
			return fmt.Errorf("warm-up build: %w", err)
		}
		s.warm = true
	}
	for i, e := range sprintEngines(b.procs) {
		if i%parts != part {
			continue
		}
		bs := s.builds[e.name]
		if bs == nil {
			bs = &builds{}
			s.builds[e.name] = bs
		}
		var m *parclass.Model
		err := b.timed(e.name, bs, func() (err error) {
			m, err = parclass.Train(ds, parclass.Options{Algorithm: e.alg, Procs: e.procs})
			return err
		})
		if !b.res.check(err == nil, "%s build: %v", e.name, err) {
			continue
		}
		if e.alg == parclass.Serial {
			s.ref = m.Tree()
		}
		b.res.check(tree.Equal(m.Tree(), s.ref), "%s tree differs from the serial tree", e.name)
		bs.record(m)
		if s.first == nil {
			s.first = m
		}
	}
	return nil
}

// hist builds one HIST tree at P=procs and one 8-member HIST forest per
// round. The first of each must reach the accuracy floor on the held-out
// rows; with repeat set every round trains the same data and must
// reproduce the first round's tree and forest exactly.
type hist struct {
	held   *parclass.Dataset
	repeat bool
	builds map[string]*builds
	tree   *parclass.Model
	forest *parclass.Forest
}

func newHist(held *parclass.Dataset, repeat bool) *hist {
	return &hist{held: held, repeat: repeat, builds: map[string]*builds{"hist": {}, "forest": {}}}
}

func (h *hist) round(b *bench, ds *parclass.Dataset) error {
	var m *parclass.Model
	err := b.timed("hist", h.builds["hist"], func() (err error) {
		m, err = parclass.Train(ds, parclass.Options{Algorithm: parclass.Hist, Procs: b.procs})
		return err
	})
	if b.res.check(err == nil, "hist build: %v", err) {
		h.builds["hist"].record(m)
		if h.tree == nil {
			h.tree = m
			acc := m.Accuracy(h.held)
			b.res.check(acc >= b.cfg.HistAccuracyFloor, "hist holdout accuracy %.4f below floor %.4f", acc, b.cfg.HistAccuracyFloor)
		}
		b.res.check(!h.repeat || tree.Equal(m.Tree(), h.tree.Tree()), "hist tree differs between repeats")
	}

	var f *parclass.Forest
	fb := h.builds["forest"]
	var wall float64
	err = b.timed("forest", fb, func() (err error) {
		t0 := time.Now()
		f, err = parclass.TrainForest(ds, parclass.Options{
			Algorithm: parclass.Hist, Procs: b.procs,
			Trees: 8, SampleFrac: 0.1, ForestSeed: b.cfg.ForestSeed,
		})
		wall = time.Since(t0).Seconds()
		return err
	})
	if !b.res.check(err == nil, "forest build: %v", err) {
		return nil
	}
	if h.forest == nil {
		h.forest = f
		acc := f.Accuracy(h.held)
		b.res.check(acc >= b.cfg.HistAccuracyFloor, "forest holdout accuracy %.4f below floor %.4f", acc, b.cfg.HistAccuracyFloor)
	}
	b.res.check(!h.repeat || sameForest(f, h.forest), "forest differs between repeats")
	// Members build one per worker and the program reports their summed
	// time; against wall×P that gives the farm's efficiency and the worker
	// time spent outside member builds.
	busy := f.Timings().Total().Seconds()
	fb.eff = append(fb.eff, busy/(wall*float64(b.procs)))
	fb.idle = append(fb.idle, wall*float64(b.procs)-busy)
	st := f.Stats()
	fb.nodes, fb.levels = st.Nodes, st.Levels
	return nil
}

func sameForest(a, b *parclass.Forest) bool {
	at, bt := a.Trees(), b.Trees()
	if len(at) != len(bt) {
		return false
	}
	for i := range at {
		if !tree.Equal(at[i], bt[i]) {
			return false
		}
	}
	return true
}

// reportLayers sets the per-layer metrics of a section's engines. The
// forest has no barriers and the program does not expose its per-member
// times, so it reports no barrier or skew figure.
func (b *bench) reportLayers(all map[string]*builds) {
	for name, bs := range all {
		put := func(metric, unit string, xs []float64) {
			if xs != nil {
				b.res.add(metric, unit, median(xs), len(xs))
			}
		}
		add := func(metric, unit string, xs []float64) { put(metric+"."+name, unit, xs) }
		switch name {
		case "hist":
			put("hist.bin_s", "s", bs.bin)
			put("hist.eval_s", "s", bs.eval)
			put("hist.split_s", "s", bs.split)
		case "forest":
		default:
			add("alist.setup_s", "s", bs.setup)
			add("alist.sort_s", "s", bs.sort)
			add("split.eval_s", "s", bs.eval)
			add("probe.winner_s", "s", bs.winner)
			add("alist.split_s", "s", bs.split)
		}
		add("sched.barrier_s", "s", bs.barrier)
		add("sched.idle_s", "s", bs.idle)
		add("core.skew", "ratio", bs.skew)
		add("core.efficiency", "ratio", bs.eff)
		add("core.mallocs", "count", bs.mallocs)
		add("core.alloc_mb", "MiB", bs.allocMB)
		b.res.add("tree.nodes."+name, "count", float64(bs.nodes), bs.n)
		b.res.add("tree.levels."+name, "count", float64(bs.levels), bs.n)
	}
}
