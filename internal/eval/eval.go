// Package eval provides classifier evaluation utilities: confusion
// matrices, per-class precision/recall/F1, and k-fold cross-validation —
// the standard measurement companions of a classification library (the
// paper evaluates runtime, citing SLIQ for the accuracy methodology).
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// Confusion is a confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Classes []string
	Counts  [][]int64
}

// Confuse evaluates the tree on the table and tallies the confusion matrix.
func Confuse(t *tree.Tree, tbl *dataset.Table) *Confusion {
	k := t.Schema.NumClasses()
	cm := &Confusion{
		Classes: append([]string(nil), t.Schema.Classes...),
		Counts:  make([][]int64, k),
	}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int64, k)
	}
	for i := 0; i < tbl.NumTuples(); i++ {
		cm.Counts[tbl.Class(i)][t.PredictRow(tbl, i)]++
	}
	return cm
}

// Total returns the number of evaluated examples.
func (c *Confusion) Total() int64 {
	var n int64
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	var correct int64
	for i := range c.Counts {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(n)
}

// ClassMetrics holds one class's one-vs-rest measures.
type ClassMetrics struct {
	Class     string
	Support   int64 // actual examples of the class
	Precision float64
	Recall    float64
	F1        float64
}

// PerClass computes precision/recall/F1 for every class. Undefined ratios
// (zero denominators) are reported as 0.
func (c *Confusion) PerClass() []ClassMetrics {
	k := len(c.Classes)
	out := make([]ClassMetrics, k)
	for i := 0; i < k; i++ {
		var tp, fp, fn int64
		tp = c.Counts[i][i]
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			fp += c.Counts[j][i]
			fn += c.Counts[i][j]
		}
		m := ClassMetrics{Class: c.Classes[i], Support: tp + fn}
		if tp+fp > 0 {
			m.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			m.Recall = float64(tp) / float64(tp+fn)
		}
		if m.Precision+m.Recall > 0 {
			m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		}
		out[i] = m
	}
	return out
}

// String renders the confusion matrix with per-class metrics.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "actual\\pred")
	for _, cl := range c.Classes {
		fmt.Fprintf(&b, " %10s", cl)
	}
	b.WriteByte('\n')
	for i, cl := range c.Classes {
		fmt.Fprintf(&b, "%-12s", cl)
		for j := range c.Classes {
			fmt.Fprintf(&b, " %10d", c.Counts[i][j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "accuracy: %.4f\n", c.Accuracy())
	for _, m := range c.PerClass() {
		fmt.Fprintf(&b, "%-10s precision=%.4f recall=%.4f f1=%.4f (n=%d)\n",
			m.Class, m.Precision, m.Recall, m.F1, m.Support)
	}
	return b.String()
}

// Folds splits [0,n) into k disjoint shuffled folds (sizes differing by at
// most one), deterministically from the seed.
func Folds(n, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need k >= 2 folds, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("eval: %d examples cannot fill %d folds", n, k)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, r := range idx {
		folds[i%k] = append(folds[i%k], r)
	}
	return folds, nil
}

// CVResult summarizes a cross-validation run.
type CVResult struct {
	FoldAccuracy []float64
	Mean         float64
	StdDev       float64
}

// CrossValidate runs k-fold cross-validation: for each fold, train on the
// remaining folds with the supplied trainer and evaluate on the held-out
// fold.
func CrossValidate(tbl *dataset.Table, k int, seed int64,
	train func(*dataset.Table) (*tree.Tree, error)) (CVResult, error) {

	folds, err := Folds(tbl.NumTuples(), k, seed)
	if err != nil {
		return CVResult{}, err
	}
	var res CVResult
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		trainTbl := tbl.Subset(trainIdx)
		testTbl := tbl.Subset(folds[f])
		model, err := train(trainTbl)
		if err != nil {
			return CVResult{}, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		res.FoldAccuracy = append(res.FoldAccuracy, model.Accuracy(testTbl))
	}
	var sum float64
	for _, a := range res.FoldAccuracy {
		sum += a
	}
	res.Mean = sum / float64(k)
	var vr float64
	for _, a := range res.FoldAccuracy {
		d := a - res.Mean
		vr += d * d
	}
	if k > 1 {
		vr /= float64(k - 1)
	}
	res.StdDev = math.Sqrt(vr)
	return res, nil
}
