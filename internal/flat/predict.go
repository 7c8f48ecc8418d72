package flat

import (
	"sync"

	"repro/internal/dataset"
)

// Predict classifies one decoded tuple, returning the class code. It is
// the flat-array counterpart of tree.Predict: a tight loop over int32
// indices with no pointer chasing, branching on a threshold compare for
// continuous splits and a bitmask probe for categorical ones.
func (t *Tree) Predict(tu dataset.Tuple) int32 {
	nodes := t.Nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.Attr < 0 {
			return n.Class
		}
		var left bool
		if n.SubsetWords == 0 {
			left = tu.Cont[n.Attr] < n.Threshold
		} else {
			left = catLeft(n, t.Subsets, tu.Cat[n.Attr])
		}
		if left {
			i++ // preorder: left child is adjacent
		} else {
			i = n.Right
		}
	}
}

// catLeft is the bitmask probe: whether category code c is in categorical
// node n's left-branch subset. Codes outside the subset's domain fall to
// the right branch, matching split.CatSet.Has.
func catLeft(n *Node, subsets []uint64, c int32) bool {
	w := c / 64
	return c >= 0 && w < n.SubsetWords && subsets[n.SubsetOff+w]&(1<<uint(c%64)) != 0
}

// PredictBatch classifies tuples with up to procs worker goroutines, each
// owning one contiguous shard of rows (the training engines' chunking
// idiom). procs <= 1, or batches too small to be worth the fan-out, run
// serially on the caller's goroutine.
func (t *Tree) PredictBatch(tus []dataset.Tuple, procs int) []int32 {
	out := make([]int32, len(tus))
	t.PredictBatchInto(tus, out, procs)
	return out
}

// minShard is the smallest per-worker shard worth a goroutine; below it the
// spawn/join overhead dwarfs the tree walks.
const minShard = 256

// PredictBatchInto is PredictBatch writing into a caller-owned slice
// (len(out) must be >= len(tus)).
func (t *Tree) PredictBatchInto(tus []dataset.Tuple, out []int32, procs int) {
	shardRows(len(tus), procs, minShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Predict(tus[i])
		}
	})
}

// shardRows runs fn over [0,n) split into up to procs contiguous shards
// of at least minRows rows, one goroutine each; a single shard runs on the
// caller's goroutine.
func shardRows(n, procs, minRows int, fn func(lo, hi int)) {
	if procs > n/minRows {
		procs = n / minRows
	}
	if procs <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(w*n/procs, (w+1)*n/procs)
	}
	wg.Wait()
}
