package flat

// Column walks: classify rows of a columnar dataset.Table where they sit,
// reading each split attribute straight from its ContColumn/CatColumn —
// the vertical layout the training engines keep — so scoring a training
// or evaluation set never rebuilds a Tuple per row. The node tests are
// Predict's and Vote's (threshold compare, bitmask probe), so a column
// walk of row r agrees with a Tuple walk of tbl.Row(r). The table must
// carry the compiled tree's schema (attribute kinds and order).

import "repro/internal/dataset"

// walkRow descends from node i of a preorder pool to a leaf for row r of
// tbl and returns the leaf's class.
func walkRow(nodes []Node, subsets []uint64, i int32, tbl *dataset.Table, r int) int32 {
	for {
		n := &nodes[i]
		if n.Attr < 0 {
			return n.Class
		}
		var left bool
		if n.SubsetWords == 0 {
			left = tbl.ContColumn(int(n.Attr))[r] < n.Threshold
		} else {
			left = catLeft(n, subsets, tbl.CatColumn(int(n.Attr))[r])
		}
		if left {
			i++ // preorder: left child is adjacent
		} else {
			i = n.Right
		}
	}
}

// PredictRow classifies row r of tbl off its columns, returning the class
// code; it allocates nothing.
func (t *Tree) PredictRow(tbl *dataset.Table, r int) int32 {
	return walkRow(t.Nodes, t.Subsets, 0, tbl, r)
}

// PredictTableInto classifies every row of tbl into out (len(out) must be
// >= tbl.NumTuples()), sharded like PredictBatchInto.
func (t *Tree) PredictTableInto(tbl *dataset.Table, out []int32, procs int) {
	shardRows(tbl.NumTuples(), procs, minShard, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			out[r] = walkRow(t.Nodes, t.Subsets, 0, tbl, r)
		}
	})
}

// VoteRow is Vote for row r of tbl read off its columns: one vote per
// tree into counts (len >= NClass; the caller zeroes it), majority class
// returned with ties to the lowest code.
func (f *Forest) VoteRow(tbl *dataset.Table, r int, counts []int32) int32 {
	for _, root := range f.Roots {
		counts[walkRow(f.Nodes, f.Subsets, root, tbl, r)]++
	}
	return Majority(counts)
}

// PredictTableInto classifies every row of tbl by majority vote into out
// (len(out) must be >= tbl.NumTuples()), sharded like PredictBatchInto.
func (f *Forest) PredictTableInto(tbl *dataset.Table, out []int32, procs int) {
	shardRows(tbl.NumTuples(), procs, f.shardMin(), func(lo, hi int) {
		counts := make([]int32, f.NClass)
		for r := lo; r < hi; r++ {
			clear(counts)
			out[r] = f.VoteRow(tbl, r, counts)
		}
	})
}
