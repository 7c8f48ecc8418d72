package parclass

import (
	"runtime"
	"testing"
)

// TestForestOOBError checks the out-of-bag estimate: it exists for
// bootstrapped forests, lands in [0,1] near the holdout error, is
// deterministic across Procs (vote adds commute), and disappears when
// SampleFrac 1 gives members nothing out-of-bag.
func TestForestOOBError(t *testing.T) {
	ds := synthDS(t, 1, 3000)
	f, err := TrainForest(ds, Options{Trees: 15, MaxDepth: 8, ForestSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	oob, ok := f.OOBError()
	if !ok {
		t.Fatal("bootstrapped forest has no OOB estimate")
	}
	if oob < 0 || oob > 1 {
		t.Fatalf("OOB error %g outside [0,1]", oob)
	}
	if f.OOBRows() <= 0 || f.OOBRows() > 3000 {
		t.Fatalf("OOB scored %d rows of 3000", f.OOBRows())
	}
	// F1 is an easy function: the estimate should resemble the training
	// error's order of magnitude, not coin-flipping.
	if oob > 0.30 {
		t.Fatalf("OOB error %g implausibly high for F1", oob)
	}

	// Same seed, parallel build: the estimate must not depend on member
	// completion order.
	par, err := TrainForest(ds, Options{Trees: 15, MaxDepth: 8, ForestSeed: 5, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	poob, pok := par.OOBError()
	if !pok || poob != oob || par.OOBRows() != f.OOBRows() {
		t.Fatalf("parallel build OOB %g/%d, serial %g/%d", poob, par.OOBRows(), oob, f.OOBRows())
	}

	// SampleFrac 1 trains every member on the full table: nothing is
	// out-of-bag, so no estimate may be claimed.
	full, err := TrainForest(ds, Options{Trees: 5, MaxDepth: 6, SampleFrac: 1, ForestSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := full.OOBError(); ok || full.OOBRows() != 0 {
		t.Fatal("SampleFrac=1 forest claims an OOB estimate")
	}
}

// TestForestOOBAllocationBudget gates out-of-bag scoring at zero
// allocations per row (make alloc-check): members walk their OOB rows off
// the dataset's columns into a reused per-worker buffer, so a bootstrapped
// TrainForest over 4n rows makes no more heap allocations than over n
// rows, up to a small constant slack. MaxDepth caps the members' size so
// the trees themselves cost the same at both sizes.
func TestForestOOBAllocationBudget(t *testing.T) {
	const n, slack = 2000, 100
	mallocs := func(ds *Dataset, opt Options) uint64 {
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := TrainForest(ds, opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	for _, alg := range []Algorithm{Serial, Hist} {
		opt := Options{Algorithm: alg, Trees: 4, MaxDepth: 3, ForestSeed: 1}
		small, large := mallocs(synthDS(t, 7, n), opt), mallocs(synthDS(t, 7, 4*n), opt)
		if large > small+slack {
			t.Errorf("%v: TrainForest mallocs grow with OOB rows: %d at %d rows, %d at %d rows",
				alg, small, n, large, 4*n)
		}
	}
}
