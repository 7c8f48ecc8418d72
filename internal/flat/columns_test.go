package flat

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/tree"
)

// randomTable fills an n-row table over schema s with randomTuple rows.
func randomTable(t *testing.T, rng *rand.Rand, s *dataset.Schema, src *dataset.Table, n int) *dataset.Table {
	t.Helper()
	out, err := dataset.NewTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tu := randomTuple(rng, s, src)
		tu.Class = int32(rng.Intn(len(s.Classes)))
		if err := out.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkColumnWalk holds the column kernels to the Tuple walk on every row
// of tbl: the flat PredictRow, the pointer tree's PredictRow, and the
// sharded PredictTableInto at several fan-outs.
func checkColumnWalk(t *testing.T, tr *tree.Tree, tbl *dataset.Table) {
	t.Helper()
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.NumTuples()
	want := make([]int32, n)
	for r := range want {
		want[r] = tr.Predict(tbl.Row(r))
		if got := ft.PredictRow(tbl, r); got != want[r] {
			t.Fatalf("row %d: flat column walk %d, tuple walk %d", r, got, want[r])
		}
		if got := tr.PredictRow(tbl, r); got != want[r] {
			t.Fatalf("row %d: pointer column walk %d, tuple walk %d", r, got, want[r])
		}
	}
	for _, procs := range []int{1, 2, 3, 7} {
		got := make([]int32, n)
		ft.PredictTableInto(tbl, got, procs)
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("procs=%d row %d: batch %d, tuple walk %d", procs, r, got[r], want[r])
			}
		}
	}
}

// TestColumnWalkMatchesTuplePredict is the column kernel's equivalence
// property on trees trained over F1–F7, scored on their training rows
// (every reachable leaf) and on random rows over the same schema.
func TestColumnWalkMatchesTuplePredict(t *testing.T) {
	for fn := 1; fn <= 7; fn++ {
		tr, tbl := grow(t, fn, 3000, 0)
		checkColumnWalk(t, tr, tbl)
		rng := rand.New(rand.NewSource(int64(fn)))
		checkColumnWalk(t, tr, randomTable(t, rng, tr.Schema, tbl, 2001))
	}
}

// TestColumnWalkMultiWordSubsets runs the column kernel over a hand-built
// categorical tree whose 150-category domain spans three bitmask words.
func TestColumnWalkMultiWordSubsets(t *testing.T) {
	tr := bigCatTree(150)
	empty, err := dataset.NewTable(tr.Schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl := randomTable(t, rand.New(rand.NewSource(5)), tr.Schema, empty, 3001)
	seen := map[int32]bool{}
	for r := 0; r < tbl.NumTuples(); r++ {
		seen[tbl.CatValue(0, r)/64] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rows cover %d subset words, want 3", len(seen))
	}
	checkColumnWalk(t, tr, tbl)
}

// TestForestColumnVoteMatchesVote holds the forest column vote to
// Vote(tbl.Row(r)): the same per-class histogram and the same winner on
// every row, ties included (an even member count over two classes ties
// often), and the sharded form at fan-outs whose shard boundaries fall on
// odd row offsets.
func TestForestColumnVoteMatchesVote(t *testing.T) {
	trees := growForest(t, 7, 3000, 4)
	f, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	_, src := grow(t, 7, 3000, 0)
	tbl := randomTable(t, rand.New(rand.NewSource(11)), f.Schema, src, 1001)
	n := tbl.NumTuples()
	want := make([]int32, n)
	ties := 0
	cw, cc := make([]int32, f.NClass), make([]int32, f.NClass)
	for r := range want {
		clear(cw)
		clear(cc)
		want[r] = f.Vote(tbl.Row(r), cw)
		if got := f.VoteRow(tbl, r, cc); got != want[r] {
			t.Fatalf("row %d: column vote %d, tuple vote %d", r, got, want[r])
		}
		for j := range cw {
			if cw[j] != cc[j] {
				t.Fatalf("row %d: column histogram %v, tuple histogram %v", r, cc, cw)
			}
		}
		if cw[0] == cw[1] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tied votes: tie-breaking went unexercised")
	}
	for _, procs := range []int{1, 2, 3, 5, 7} {
		got := make([]int32, n)
		f.PredictTableInto(tbl, got, procs)
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("procs=%d row %d: batch %d, tuple vote %d", procs, r, got[r], want[r])
			}
		}
	}
}

// TestColumnKernelAllocationBudget gates the column kernels at zero
// allocations per row (make alloc-check): PredictRow and VoteRow allocate
// nothing, and the batch forms' per-call cost (the shard closure, a vote
// histogram per shard, goroutines) is the same for n and 4n rows.
func TestColumnKernelAllocationBudget(t *testing.T) {
	big, err := synth.Generate(synth.Config{Function: 7, Tuples: 4096, Seed: 3, Perturbation: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, big.NumTuples()/4)
	for i := range idx {
		idx[i] = i
	}
	small := big.Subset(idx)
	tr, _, err := core.Build(small, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := CompileForest(growForest(t, 7, 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int32, f.NClass)
	if a := testing.AllocsPerRun(20, func() {
		for r := 0; r < big.NumTuples(); r++ {
			ft.PredictRow(big, r)
			tr.PredictRow(big, r)
			clear(counts)
			f.VoteRow(big, r, counts)
		}
	}); a != 0 {
		t.Fatalf("column walks allocate %.1f per %d rows, want 0", a, big.NumTuples())
	}
	out := make([]int32, big.NumTuples())
	for _, procs := range []int{1, 2} {
		perCall := func(tbl *dataset.Table) (treeAllocs, forestAllocs float64) {
			return testing.AllocsPerRun(20, func() { ft.PredictTableInto(tbl, out, procs) }),
				testing.AllocsPerRun(20, func() { f.PredictTableInto(tbl, out, procs) })
		}
		ts, fs := perCall(small)
		tb, fb := perCall(big)
		if tb != ts || fb != fs {
			t.Fatalf("procs=%d: batch allocations grow with rows: tree %.1f→%.1f, forest %.1f→%.1f over %d→%d rows",
				procs, ts, tb, fs, fb, small.NumTuples(), big.NumTuples())
		}
	}
}
