package main

// The traced run's layer timers. The benchmark adds no instrumentation to
// the program: it times calls into each layer's public functions from
// outside, replaying the serve path on the same request bodies the load
// phases sent, and reads the counters the program already exposes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/ingest"
)

// replayReps is how many times each replayed span runs per body.
const replayReps = 3

// perBody times fn over every body replayReps times and returns the
// per-call times in microseconds.
func perBody(n int, fn func(i int)) []float64 {
	var xs []float64
	for r := 0; r < replayReps; r++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return xs
}

// addMedian reports the median of xs.
func (b *bench) addMedian(name, unit string, xs []float64) {
	b.res.add(name, unit, median(xs), len(xs))
}

// pairDiff is the element-wise difference a-b of two timings of the same
// calls.
func pairDiff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// serveLayers replays one predict request's layers on t's bodies: JSON
// decode, PredictValuesBatch, the flat walk on pre-decoded tuples, the
// response encode, and the whole handler with and without the batcher.
func (b *bench) serveLayers(st *setup, t *traffic) error {
	m := st.served
	n := len(t.predict)
	var req struct {
		ValuesRows [][]string `json:"values_rows"`
	}
	b.addMedian("json.parse_us", "us", perBody(n, func(i int) { json.Unmarshal(t.predict[i], &req) }))

	// Each body is replayed at request size, as the server predicts it,
	// so the batch call and the walk pick the same kernel and the same
	// shards; decode is the paired difference of the two timings.
	tus := make([][]dataset.Tuple, n)
	tbl := st.held.Table()
	for i := range tus {
		for j := 0; j < t.rowsPer; j++ {
			tus[i] = append(tus[i], tbl.Row(i*t.rowsPer+j))
		}
	}
	walk, err := walker(m)
	if err != nil {
		return err
	}
	batch := perBody(n, func(i int) {
		_, err := m.PredictValuesBatch(t.rows[i])
		b.res.check(err == nil, "batch replay: %v", err)
	})
	walks := perBody(n, func(i int) { walk(tus[i], b.procs) })
	b.addMedian("parclass.batch_us", "us", batch)
	b.addMedian("flat.walk_us", "us", walks)
	b.addMedian("parclass.decode_us", "us", pairDiff(batch, walks))

	preds := make([][]string, n)
	for i := range preds {
		if preds[i], err = m.PredictValuesBatch(t.rows[i]); err != nil {
			return err
		}
	}
	b.addMedian("json.encode_us", "us", perBody(n, func(i int) {
		json.Marshal(struct {
			Model       string   `json:"model"`
			Predictions []string `json:"predictions"`
			Trees       int      `json:"trees,omitempty"`
			Rows        int      `json:"rows"`
			ElapsedUS   int64    `json:"elapsed_us"`
		}{"default", preds[i], m.NumTrees(), t.rowsPer, 1})
	}))

	h := st.sv.s.Handler()
	serveOne := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		b.res.check(rec.Code == http.StatusOK, "handler replay: %d %s", rec.Code, truncate(rec.Body.String()))
	}
	noBatch := make([][]byte, n)
	for i, body := range t.predict {
		noBatch[i] = append([]byte(`{"no_batch":true,`), body[1:]...)
	}
	batched := perBody(n, func(i int) { serveOne(t.predict[i]) })
	direct := perBody(n, func(i int) { serveOne(noBatch[i]) })
	b.addMedian("serve.handler_us", "us", batched)
	b.addMedian("batcher.wait_us", "us", pairDiff(batched, direct))
	return nil
}

// walker is the flat layout's predict on pre-decoded tuples.
func walker(m parclass.Predictor) (func([]dataset.Tuple, int), error) {
	switch p := m.(type) {
	case *parclass.Model:
		ft, err := flat.Compile(p.Tree())
		if err != nil {
			return nil, err
		}
		return func(tus []dataset.Tuple, procs int) { ft.PredictBatch(tus, procs) }, nil
	case *parclass.Forest:
		ff, err := flat.CompileForest(p.Trees())
		if err != nil {
			return nil, err
		}
		return func(tus []dataset.Tuple, procs int) { ff.PredictBatch(tus, procs) }, nil
	}
	return nil, fmt.Errorf("no flat layout for %T", m)
}

// ingestLayers replays one ingest request's layers on the mix's ingest
// bodies against a private window, then snapshots the full retrain window
// w the way a retrain cycle does.
func (b *bench) ingestLayers(st *setup, w *ingest.Window) error {
	t := st.mix
	n := len(t.ingest)
	var req struct {
		Rows []ingestRow `json:"rows"`
	}
	b.addMedian("ingest.parse_us", "us", perBody(n, func(i int) { json.Unmarshal(t.ingest[i], &req) }))

	own, err := ingest.NewWindow(w.Schema(), w.Capacity())
	if err != nil {
		return err
	}
	decoded := make([][]dataset.Tuple, n)
	b.addMedian("ingest.decode_us", "us", perBody(n, func(i int) {
		rows := t.ingRows[i]
		tus := make([]dataset.Tuple, len(rows))
		for j := range rows {
			tu, err := own.Decode(rows[j], t.labels[i][j])
			b.res.check(err == nil, "ingest decode replay: %v", err)
			tus[j] = tu
		}
		decoded[i] = tus
	}))
	b.addMedian("ingest.append_us", "us", perBody(n, func(i int) { own.AppendRows(decoded[i]) }))

	var snaps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		w.Snapshot(5) // the retrain default: every 5th row held out
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	b.addMedian("ingest.snapshot_ms", "ms", snaps)
	return nil
}

// rtSample brackets the measured part of a run with runtime/metrics
// readings; only traced runs take them.
type rtSample struct {
	samples []metrics.Sample
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (b *bench) startRuntime() *rtSample {
	if !b.trace {
		return nil
	}
	return &rtSample{readRuntime()}
}

// finish sets the GC share of CPU time and the p99 GC pause over the
// measured part of the run.
func (r *rtSample) finish(b *bench) {
	if r == nil {
		return
	}
	end := readRuntime()
	gc := end[0].Value.Float64() - r.samples[0].Value.Float64()
	total := end[1].Value.Float64() - r.samples[1].Value.Float64()
	b.res.add("runtime.gc_cpu_frac", "ratio", gc/max(total, 1e-9), 1)

	h0, h1 := r.samples[2].Value.Float64Histogram(), end[2].Value.Float64Histogram()
	var n uint64
	counts := make([]uint64, len(h1.Counts))
	for i := range counts {
		counts[i] = h1.Counts[i] - h0.Counts[i]
		n += counts[i]
	}
	p99 := 0.0
	if n > 0 {
		target := uint64(float64(n)*0.99 + 0.5)
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= max(target, 1) {
				// Buckets[i+1] is the bucket's upper edge; the last may be +Inf.
				p99 = h1.Buckets[i]
				if up := h1.Buckets[i+1]; up < 1e300 {
					p99 = up
				}
				break
			}
		}
	}
	b.res.add("runtime.gc_pause_p99_ms", "ms", p99*1e3, int(n))
}
