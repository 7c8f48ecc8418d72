package main

import (
	"fmt"
	"os"
	"time"

	parclass "repro"
	"repro/internal/ingest"
	"repro/internal/serve"
)

func (b *bench) count(p *phase) {
	b.res.attempted += p.attempted
	b.res.failed += p.failed
}

// Each round of a serve section splits its slice between the phases in
// these shares. A section without predict figures runs no ladder and gives
// its time to the fixed-rate phase.
const (
	capacityShare = 0.2
	fixedShare    = 0.25
	ladderShare   = 0.55
)

// ladderRungs are the ladder's offered rates as fractions of the capacity
// the same round measured: below it, near it, and past it, so the top rung
// fails and the limit is crossed inside the ladder.
var ladderRungs = []float64{0.7, 0.95, 1.2}

// load is one serve section: a traffic shape driven against the server
// once per round. Each round measures a closed-loop capacity slice, a
// slice of the fixed-rate open loop, and the rate ladder, whose rungs are
// fractions of the capacity that same round measured. Each figure is the
// median over rounds of that round's value: a host stall that lands in
// one round moves that round's p99, not the run's.
type load struct {
	st       *setup
	t        *traffic
	tc       traffCfg
	c        *client
	predict  bool // report the predict figures
	ingest   bool // report the ingest figures
	warm     bool
	dispatch dispatches
	rttUS    []float64
	rungs    []rung
}

func (b *bench) newLoad(st *setup, t *traffic, kind string, predict, ingest bool) *load {
	return &load{
		st: st, t: t, tc: b.cfg.Traffic[kind],
		c:       newClient(st.sv.url, b.procs, b.trace),
		predict: predict, ingest: ingest,
	}
}

func (l *load) round(b *bench, d time.Duration) error {
	if !l.warm {
		// Open the connections and wake the batcher before timing.
		b.count(l.c.run(l.t, 0, 300*time.Millisecond))
		l.warm = true
	}
	if b.trace && l.predict {
		// Other sections share the server, so the batcher counters are
		// read around this section's phases only.
		before, err := l.c.metrics()
		if err != nil {
			return err
		}
		defer func() {
			if after, err := l.c.metrics(); err == nil {
				l.dispatch.add(before, after)
			}
		}()
	}
	part := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	fixShare := fixedShare
	if !l.predict {
		fixShare += ladderShare
	}
	capP := l.c.run(l.t, 0, part(capacityShare))
	b.count(capP)
	fixP := l.c.run(l.t, l.tc.FixedRateRPS, part(fixShare))
	b.count(fixP)
	l.rttUS = append(l.rttUS, capP.rttUS...)
	if l.ingest {
		b.res.add("ingest_rows_per_s", "rows/s", float64(capP.ingRows)/capP.elapsed.Seconds(), len(capP.ingLat))
		b.res.add("ingest_p99_ms", "ms", quantile(ms(fixP.ingLat), 0.99), len(fixP.ingLat))
	}
	if !l.predict {
		return nil
	}
	b.res.add("predict_rows_per_s", "rows/s", float64(capP.predRows)/capP.elapsed.Seconds(), len(capP.predLat))
	b.res.add("predict_p50_ms", "ms", fixP.predictP(0.5), len(fixP.predLat))
	b.res.add("predict_p99_ms", "ms", fixP.predictP(0.99), len(fixP.predLat))
	if b.trace {
		b.res.add("loadgen.late_p99_ms", "ms", quantile(ms(fixP.late), 0.99), len(fixP.late))
		b.res.add("loadgen.backlog", "count", float64(fixP.backlog), 1)
	}

	capacity := float64(len(capP.predLat)) / capP.elapsed.Seconds()
	if l.rungs == nil {
		l.rungs = make([]rung, len(ladderRungs))
	}
	for k, f := range ladderRungs {
		p := l.c.run(l.t, f*capacity, part(ladderShare)/time.Duration(len(ladderRungs)))
		b.count(p)
		g := &l.rungs[k]
		g.rates = append(g.rates, f*capacity)
		g.p99s = append(g.p99s, p.missedP99(l.tc.P99LimitMS))
		g.n += len(p.predLat)
	}
	return nil
}

// dispatches sums the micro-batcher's /v1/metrics counters over a
// section's phases.
type dispatches struct {
	n, rows, reqs, shed int64
}

func (d *dispatches) add(before, after *metricsDoc) {
	x, y := before.Batching, after.Batching
	d.n += y.CoalescedRows.Count - x.CoalescedRows.Count
	d.rows += y.CoalescedRows.Sum - x.CoalescedRows.Sum
	d.reqs += y.CoalescedRequests.Sum - x.CoalescedRequests.Sum
	d.shed += y.ShedTotal - x.ShedTotal
}

// rung collects one ladder step over the rounds: each round offers the
// same fraction of the capacity it measured.
type rung struct {
	rates, p99s []float64
	n           int
}

// maxRPS is predict_max_rps from the ladder's medians over rounds: a rung
// passes when its median p99 is within the limit. Latency runs from each
// request's due time and a request left unsent past the limit counts at
// the wait it had reached, so a rung whose backlog grows fails.
func (l *load) maxRPS() (float64, int) {
	var rates, p99s []float64
	var pass []bool
	n := 0
	for _, g := range l.rungs {
		p99 := median(g.p99s)
		rates, p99s = append(rates, median(g.rates)), append(p99s, p99)
		pass = append(pass, p99 <= l.tc.P99LimitMS)
		n += g.n
		fmt.Fprintf(os.Stderr, "ladder: %.0f req/s, p99 %.2f ms (limit %g ms), %d requests, pass %v\n",
			rates[len(rates)-1], p99, l.tc.P99LimitMS, g.n, pass[len(pass)-1])
	}
	return maxRate(rates, p99s, pass, l.tc.P99LimitMS), n
}

// finish reports predict_max_rps; in a traced run it also reads the
// batcher's coalescing over the section from /v1/metrics and replays the
// section's predict layers.
func (l *load) finish(b *bench) error {
	defer l.c.close()
	if !l.predict {
		return nil
	}
	v, n := l.maxRPS()
	b.res.add("predict_max_rps", "1/s", v, n)
	if !b.trace {
		return nil
	}
	d := l.dispatch
	if d.n == 0 {
		return fmt.Errorf("the batcher dispatched nothing")
	}
	b.res.add("batcher.rows_per_dispatch", "rows", float64(d.rows)/float64(d.n), int(d.n))
	b.res.add("batcher.reqs_per_dispatch", "count", float64(d.reqs)/float64(d.n), int(d.n))
	b.res.add("batcher.shed", "count", float64(d.shed), 1)
	b.res.add("net.rtt_us", "us", median(l.rttUS), len(l.rttUS))
	return b.serveLayers(l.st, l.t)
}

// retrainModel is the registry name the retrain section works on: a second
// copy of the served model whose ingest window only the retrain section
// fills, so the window's contents depend on the seed alone and a winning
// candidate never replaces the model the load phases check against.
const retrainModel = "retrain"

// retrainer times synchronous RetrainOnce calls on a window filled with
// exactly its capacity of held-out rows, in order. The outcomes must match
// ingest.Retrain replayed on an independent window holding the same rows.
type retrainer struct {
	st     *setup
	w      *ingest.Window // the replay window
	ref    []ingest.Outcome
	calls  int
	trainS []float64
}

func (r *retrainer) round(b *bench, c *client, calls int) error {
	if r.w == nil {
		if err := r.fill(c); err != nil {
			return err
		}
	}
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		res, err := r.st.sv.s.RetrainOnce(retrainModel, ingest.RetrainConfig{})
		b.res.attempted++
		if err != nil {
			b.res.failed++
			return fmt.Errorf("RetrainOnce: %w", err)
		}
		b.res.add("retrain_s", "s", time.Since(t0).Seconds(), 1)
		// After the first cycle the serving model is fixed (the candidate,
		// or the original), so every later cycle repeats the second outcome.
		want := r.ref[min(r.calls, 1)]
		b.res.check(res.Outcome == want, "retrain %d: outcome %s, replay says %s", r.calls, res.Outcome, want)
		r.calls++
		r.trainS = append(r.trainS, res.TrainSecs)
	}
	return nil
}

// layers reports the retrains' build time and replays the ingest path's
// layers.
func (r *retrainer) layers(b *bench) error {
	b.res.add("ingest.retrain_train_s", "s", median(r.trainS), len(r.trainS))
	return b.ingestLayers(r.st, r.w)
}

func (r *retrainer) fill(c *client) error {
	const chunk = 500
	rows, labels := positional(r.st.held.Table(), trafficRows, trafficRows+serve.DefaultIngestWindow)
	var bodies [][]byte
	for lo := 0; lo < len(rows); lo += chunk {
		bodies = append(bodies, ingestBody(retrainModel, rows[lo:lo+chunk], labels[lo:lo+chunk]))
	}
	if err := c.postAll("/v1/ingest", bodies, []byte(fmt.Sprintf(`"accepted":%d,`, chunk))); err != nil {
		return err
	}
	w, err := ingest.NewWindow(r.st.served.Schema(), serve.DefaultIngestWindow)
	if err != nil {
		return err
	}
	for i := range rows {
		tu, err := w.Decode(rows[i], labels[i])
		if err != nil {
			return err
		}
		w.Append(tu)
	}
	var cur parclass.Predictor = r.st.served
	for k := 0; k < 2; k++ {
		res, err := ingest.Retrain(w, cur, ingest.RetrainConfig{})
		if err != nil {
			return err
		}
		r.ref = append(r.ref, res.Outcome)
		if res.Outcome == ingest.OutcomeSwapped {
			cur = res.Candidate
		}
	}
	r.w = w
	return nil
}
