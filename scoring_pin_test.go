package parclass

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// predictionsHash fingerprints a PredictDataset result: FNV-64a over the
// class names, newline-separated, in row order.
func predictionsHash(preds []string) uint64 {
	h := fnv.New64a()
	for _, p := range preds {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestForestScoringPinned holds forest scoring to values recorded before
// the out-of-bag and dataset scoring paths moved from per-row Tuples to
// column reads: the OOB estimate (as float bits), its row count, the
// ensemble's accuracy and its full prediction vector must all reproduce
// bit for bit. The cases cover the exact engine, the HIST engine with an
// attribute subsample, and a function whose splits are mostly
// categorical (F3 splits on elevel, padded with categorical noise).
func TestForestScoringPinned(t *testing.T) {
	cases := []struct {
		name      string
		fn, rows  int
		attrs     int
		opt       Options
		oobBits   uint64
		oobRows   int
		accBits   uint64
		predsHash uint64
	}{
		{
			name: "exact-F1", fn: 1, rows: 2000,
			opt:     Options{Trees: 6, MaxDepth: 8, ForestSeed: 11},
			oobBits: 0x3fa078cb271ee27d, oobRows: 1865, accBits: 0x3fef126e978d4fdf, predsHash: 0x34463851aea7761f,
		},
		{
			name: "hist-F7-featurefrac", fn: 7, rows: 3000,
			opt:     Options{Algorithm: Hist, Trees: 8, SampleFrac: 0.3, FeatureFrac: 0.5, ForestSeed: 3, Procs: 2},
			oobBits: 0x3faf3b645a1cac08, oobRows: 3000, accBits: 0x3fee1cac083126e9, predsHash: 0x2e76806d05071931,
		},
		{
			name: "categorical-F3", fn: 3, rows: 2500, attrs: 21,
			opt:     Options{Trees: 5, FeatureFrac: 0.6, MaxDepth: 10, ForestSeed: 9},
			oobBits: 0x3fd7f70a86d4c5fe, oobRows: 2286, accBits: 0x3fe599999999999a, predsHash: 0xa6b545cdeb5d8fa,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := Synthetic(SyntheticConfig{
				Function: tc.fn, Tuples: tc.rows, Attrs: tc.attrs, Seed: 7, Perturbation: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			test, err := Synthetic(SyntheticConfig{
				Function: tc.fn, Tuples: 1000, Attrs: tc.attrs, Seed: 8, Perturbation: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := TrainForest(ds, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			oob, ok := f.OOBError()
			if !ok {
				t.Fatal("no OOB estimate")
			}
			got := fmt.Sprintf("oobBits=%#x oobRows=%d accBits=%#x predsHash=%#x",
				math.Float64bits(oob), f.OOBRows(),
				math.Float64bits(f.Accuracy(test)), predictionsHash(f.PredictDataset(test)))
			want := fmt.Sprintf("oobBits=%#x oobRows=%d accBits=%#x predsHash=%#x",
				tc.oobBits, tc.oobRows, tc.accBits, tc.predsHash)
			if got != want {
				t.Fatalf("forest scoring drifted:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestModelScoringPinned is TestForestScoringPinned for single trees:
// Model.Accuracy, Model.Evaluate's confusion matrix and PredictDataset
// output, recorded before those paths moved to column reads.
func TestModelScoringPinned(t *testing.T) {
	cases := []struct {
		name      string
		fn, attrs int
		classes   int
		opt       Options
		accBits   uint64
		confusion [][]int64
		predsHash uint64
	}{
		{
			name: "mwk-F7", fn: 7,
			opt:       Options{Algorithm: MWK, Procs: 2, MaxDepth: 12},
			accBits:   0x3fed555555555555,
			confusion: [][]int64{{706, 52}, {73, 669}},
			predsHash: 0xbec0a9f40a99e2fc,
		},
		{
			name: "serial-F3-categorical", fn: 3, attrs: 21,
			opt:       Options{MaxDepth: 10},
			accBits:   0x3fedddddddddddde,
			confusion: [][]int64{{746, 43}, {57, 654}},
			predsHash: 0xa04461e806e500a8,
		},
		{
			name: "hist-F1-3class", fn: 1, classes: 3,
			opt:       Options{Algorithm: Hist, MaxDepth: 8},
			accBits:   0x3fedd867c3ece2a5,
			confusion: [][]int64{{445, 19, 15}, {12, 497, 25}, {15, 15, 457}},
			predsHash: 0x828a1801be1d87a6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SyntheticConfig{
				Function: tc.fn, Tuples: 3000, Attrs: tc.attrs, Classes: tc.classes,
				Seed: 7, Perturbation: 0.05, LabelNoise: 0.02,
			}
			ds, err := Synthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed, cfg.Tuples = 8, 1500
			test, err := Synthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Train(ds, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			acc := m.Accuracy(test)
			if math.Float64bits(acc) != tc.accBits {
				t.Errorf("Accuracy bits %#x (%g), want %#x", math.Float64bits(acc), acc, tc.accBits)
			}
			if cm := m.Evaluate(test).ConfusionMatrix; !reflect.DeepEqual(cm, tc.confusion) {
				t.Errorf("confusion matrix %#v, want %#v", cm, tc.confusion)
			}
			if h := predictionsHash(m.PredictDataset(test)); h != tc.predsHash {
				t.Errorf("PredictDataset hash %#x, want %#x", h, tc.predsHash)
			}
		})
	}
}
