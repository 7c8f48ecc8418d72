package flat

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// Forest is a compiled tree ensemble: every member tree's preorder node
// array concatenated into one contiguous pool (one shared subset-bitmask
// pool as well), with Roots marking where each tree starts. Keeping all
// trees in one allocation means a row-major vote across N trees touches
// one node slab instead of N scattered ones, and a batch predict
// amortizes the per-row decode over every tree. A Forest is immutable
// after CompileForest and safe for concurrent use.
type Forest struct {
	Nodes   []Node
	Subsets []uint64
	Roots   []int32
	Schema  *dataset.Schema
	// NClass is the schema's class count, the width of a vote histogram.
	NClass int
}

// CompileForest flattens pointer trees into one contiguous pool. All
// trees must share the same schema. emit appends nodes with absolute
// indices, so concatenation needs no index fix-up — each tree's subtree
// links are already pool-relative.
func CompileForest(trees []*tree.Tree) (*Forest, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("flat: empty forest")
	}
	if trees[0] == nil || trees[0].Schema == nil {
		return nil, fmt.Errorf("flat: nil tree or schema in forest")
	}
	schema := trees[0].Schema
	ft := &Tree{Schema: schema}
	f := &Forest{Schema: schema, NClass: schema.NumClasses()}
	for ti, t := range trees {
		if t == nil || t.Root == nil {
			return nil, fmt.Errorf("flat: forest tree %d is nil", ti)
		}
		if t.Schema != schema {
			return nil, fmt.Errorf("flat: forest tree %d has a different schema", ti)
		}
		f.Roots = append(f.Roots, int32(len(ft.Nodes)))
		if err := ft.emit(t.Root); err != nil {
			return nil, fmt.Errorf("flat: forest tree %d: %w", ti, err)
		}
	}
	f.Nodes = ft.Nodes
	f.Subsets = ft.Subsets
	return f, nil
}

// NumTrees returns the member count.
func (f *Forest) NumTrees() int { return len(f.Roots) }

// Vote classifies one decoded tuple by all trees, accumulating one vote
// per tree into counts (len >= NClass; the caller zeroes it) and
// returning the majority class. Ties break to the lowest class code, so
// the result is deterministic.
func (f *Forest) Vote(tu dataset.Tuple, counts []int32) int32 {
	nodes := f.Nodes
	subsets := f.Subsets
	for _, root := range f.Roots {
		i := root
		for {
			n := &nodes[i]
			if n.Attr < 0 {
				counts[n.Class]++
				break
			}
			var left bool
			if n.SubsetWords == 0 {
				left = tu.Cont[n.Attr] < n.Threshold
			} else {
				left = catLeft(n, subsets, tu.Cat[n.Attr])
			}
			if left {
				i++ // preorder: left child is adjacent
			} else {
				i = n.Right
			}
		}
	}
	return Majority(counts)
}

// Majority returns the index of the largest count, lowest index on ties.
func Majority(counts []int32) int32 {
	best, bestC := int32(0), int32(-1)
	for j, c := range counts {
		if c > bestC {
			best, bestC = int32(j), c
		}
	}
	return best
}

// Predict classifies one decoded tuple by majority vote, allocating a
// scratch vote histogram. Hot paths should use Vote with a reused buffer.
func (f *Forest) Predict(tu dataset.Tuple) int32 {
	counts := make([]int32, f.NClass)
	return f.Vote(tu, counts)
}

// PredictBatch classifies tuples with up to procs worker goroutines, each
// owning one contiguous shard of rows, voting all trees per row before
// moving to the next (row-major: one pass over the decoded row services
// every tree).
func (f *Forest) PredictBatch(tus []dataset.Tuple, procs int) []int32 {
	out := make([]int32, len(tus))
	f.PredictBatchInto(tus, out, procs)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-owned slice
// (len(out) must be >= len(tus)).
func (f *Forest) PredictBatchInto(tus []dataset.Tuple, out []int32, procs int) {
	shardRows(len(tus), procs, f.shardMin(), func(lo, hi int) {
		counts := make([]int32, f.NClass)
		for i := lo; i < hi; i++ {
			clear(counts)
			out[i] = f.Vote(tus[i], counts)
		}
	})
}

// shardMin is the smallest shard worth a goroutine: a forest row costs
// ~NumTrees() single-tree walks, so it shrinks proportionally.
func (f *Forest) shardMin() int {
	return max(minShard/f.NumTrees(), 1)
}
