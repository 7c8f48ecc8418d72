package flat

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// growForest builds nTrees pointer trees over depth-capped variants of
// fn's synthetic data so the members genuinely differ.
func growForest(t *testing.T, fn, tuples, nTrees int) []*tree.Tree {
	t.Helper()
	var trees []*tree.Tree
	base, _ := grow(t, fn, tuples, 0)
	for i := 0; i < nTrees; i++ {
		tr, _ := grow(t, fn, tuples, 2+i%5)
		tr.Schema = base.Schema // CompileForest requires one shared schema
		trees = append(trees, tr)
	}
	return trees
}

// TestForestSingleTreeMatchesTree: a 1-tree forest's Vote must equal the
// member tree's Predict on random tuples — the fused path adds voting,
// not different routing.
func TestForestSingleTreeMatchesTree(t *testing.T) {
	tr, tbl := grow(t, 7, 4000, 0)
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := CompileForest([]*tree.Tree{tr})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 1 {
		t.Fatalf("NumTrees = %d, want 1", f.NumTrees())
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int32, f.NClass)
	for i := 0; i < 2000; i++ {
		tu := randomTuple(rng, tr.Schema, tbl)
		clear(counts)
		if got, want := f.Vote(tu, counts), ft.Predict(tu); got != want {
			t.Fatalf("row %d: forest voted %d, tree predicts %d", i, got, want)
		}
	}
}

// TestForestVoteMatchesMemberMajority: the fused row-major vote must equal
// the majority of the members' individual predictions (ties to the lowest
// class code).
func TestForestVoteMatchesMemberMajority(t *testing.T) {
	trees := growForest(t, 7, 3000, 7)
	f, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*Tree, len(trees))
	for i, tr := range trees {
		if members[i], err = Compile(tr); err != nil {
			t.Fatal(err)
		}
	}
	_, tbl := grow(t, 7, 3000, 0)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int32, f.NClass)
	want := make([]int32, f.NClass)
	for i := 0; i < 1000; i++ {
		tu := randomTuple(rng, f.Schema, tbl)
		clear(counts)
		got := f.Vote(tu, counts)
		clear(want)
		for _, m := range members {
			want[m.Predict(tu)]++
		}
		if exp := Majority(want); got != exp {
			t.Fatalf("row %d: fused vote %d, member majority %d (counts %v vs %v)",
				i, got, exp, counts, want)
		}
		for j := range counts {
			if counts[j] != want[j] {
				t.Fatalf("row %d: vote counts %v, member counts %v", i, counts, want)
			}
		}
	}
}

// TestForestPredictBatchMatchesSerial: the sharded batch path must agree
// with per-row Vote for every procs fan-out.
func TestForestPredictBatchMatchesSerial(t *testing.T) {
	trees := growForest(t, 1, 3000, 5)
	f, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	_, tbl := grow(t, 1, 3000, 0)
	rng := rand.New(rand.NewSource(3))
	tusIn := make([]dataset.Tuple, 4096)
	for i := range tusIn {
		tusIn[i] = randomTuple(rng, f.Schema, tbl)
	}
	want := make([]int32, len(tusIn))
	for i, tu := range tusIn {
		want[i] = f.Predict(tu)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		got := f.PredictBatch(tusIn, procs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("procs=%d row %d: got %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

// CompileForest input validation.
func TestCompileForestRejectsBadInput(t *testing.T) {
	if _, err := CompileForest(nil); err == nil {
		t.Fatal("empty forest accepted")
	}
	tr1, _ := grow(t, 1, 500, 3)
	tr2, _ := grow(t, 1, 500, 3)
	// tr2 keeps its own schema pointer: must be rejected.
	if _, err := CompileForest([]*tree.Tree{tr1, tr2}); err == nil {
		t.Fatal("mixed-schema forest accepted")
	}
	if _, err := CompileForest([]*tree.Tree{tr1, nil}); err == nil {
		t.Fatal("nil member accepted")
	}
}
