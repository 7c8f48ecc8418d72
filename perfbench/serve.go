package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// server is one in-process parclassd: the serve.Server with parclassd's
// default micro-batching and ingest window, behind a real loopback HTTP
// listener.
type server struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	s := serve.New("")
	if err := s.EnableBatching(serve.BatchConfig{}); err != nil {
		return nil, err
	}
	if err := s.EnableIngest(serve.IngestConfig{}); err != nil {
		s.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	sv := &server{
		s:    s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// stop shuts the listener down, waits for the serve goroutine and stops
// the batcher's dispatcher.
func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sv.hs.Shutdown(ctx)
	<-sv.done
	sv.s.Close()
}

// traffic is a pool of pre-encoded request bodies cycled by the load
// generator. Predict bodies are positional values_rows; expect[i] is the
// response fragment the in-process predictor produced for predict[i]. A
// mix also carries bulk ingest bodies, sent 1:1 with predicts.
type traffic struct {
	rowsPer  int
	rows     [][][]string // predict rows per body, for expectations and replays
	predict  [][]byte
	expect   [][]byte
	ingest   [][]byte
	ingestOK []byte // the "accepted" fragment every ingest reply must carry
	ingRows  [][][]string
	labels   [][]string
}

// positional re-encodes table rows [lo,hi) in the wire form: one string
// per schema attribute, plus the class label.
func positional(tbl *dataset.Table, lo, hi int) (rows [][]string, labels []string) {
	s := tbl.Schema()
	for i := lo; i < hi; i++ {
		vals := make([]string, len(s.Attrs))
		for a := range s.Attrs {
			if s.Attrs[a].Kind == dataset.Continuous {
				vals[a] = strconv.FormatFloat(tbl.ContValue(a, i), 'g', -1, 64)
			} else {
				vals[a] = s.Attrs[a].Categories[tbl.CatValue(a, i)]
			}
		}
		rows = append(rows, vals)
		labels = append(labels, s.Classes[tbl.Class(i)])
	}
	return rows, labels
}

type ingestRow struct {
	Values []string `json:"values"`
	Class  string   `json:"class"`
}

func ingestBody(model string, rows [][]string, labels []string) []byte {
	req := struct {
		Model string      `json:"model,omitempty"`
		Rows  []ingestRow `json:"rows"`
	}{Model: model}
	for i := range rows {
		req.Rows = append(req.Rows, ingestRow{rows[i], labels[i]})
	}
	b, _ := json.Marshal(req) // strings only: cannot fail
	return b
}

func predictBody(rows [][]string) []byte {
	b, _ := json.Marshal(struct {
		ValuesRows [][]string `json:"values_rows"`
	}{rows}) // strings only: cannot fail
	return b
}

// newTraffic cuts held-out rows into bodies of rowsPer rows; with mix set,
// the second half of the rows becomes the ingest bodies.
func newTraffic(held *dataset.Table, bodies, rowsPer int, mix bool) *traffic {
	t := &traffic{rowsPer: rowsPer}
	for i := 0; i < bodies; i++ {
		rows, _ := positional(held, i*rowsPer, (i+1)*rowsPer)
		t.rows = append(t.rows, rows)
		t.predict = append(t.predict, predictBody(rows))
		if mix {
			lo := (bodies + i) * rowsPer
			irows, labels := positional(held, lo, lo+rowsPer)
			t.ingest = append(t.ingest, ingestBody("", irows, labels))
			t.ingRows = append(t.ingRows, irows)
			t.labels = append(t.labels, labels)
		}
	}
	t.ingestOK = []byte(fmt.Sprintf(`"accepted":%d,`, rowsPer))
	return t
}

// expectFrom records the in-process predictor's answer to every body.
func (t *traffic) expectFrom(m parclass.Predictor) error {
	t.expect = t.expect[:0]
	for _, rows := range t.rows {
		preds, err := m.PredictValuesBatch(rows)
		if err != nil {
			return err
		}
		b, _ := json.Marshal(preds) // strings only: cannot fail
		t.expect = append(t.expect, append([]byte(`"predictions":`), b...))
	}
	return nil
}

// client drives one server over at most procs keep-alive connections.
type client struct {
	hc    *http.Client
	url   string
	procs int
	trace bool
}

func newClient(url string, procs int, trace bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     procs,
		MaxIdleConnsPerHost: procs,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url, procs: procs, trace: trace}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and checks the reply is 200 and contains want. It
// returns the server's elapsed_us when the reply carries one.
func (c *client) post(path string, body, want []byte, buf *bytes.Buffer) (elapsedUS int64, ok bool) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(buf.Bytes(), want) {
		return 0, false
	}
	if c.trace {
		if i := bytes.Index(buf.Bytes(), []byte(`"elapsed_us":`)); i >= 0 {
			rest := buf.Bytes()[i+len(`"elapsed_us":`):]
			j := bytes.IndexAny(rest, ",}")
			if j > 0 {
				elapsedUS, _ = strconv.ParseInt(string(rest[:j]), 10, 64)
			}
		}
	}
	return elapsedUS, true
}

// phase is what one load phase observed. Latencies of an open-loop phase
// run from each request's due time, so a stall is charged to every
// request queued behind it; a closed loop times from send.
type phase struct {
	predLat, ingLat []time.Duration
	late            []time.Duration // open loop: send time minus due time
	rttUS           []float64       // traced: client latency minus elapsed_us
	predRows        int64
	ingRows         int64
	attempted       int64
	failed          int64
	predFailed      int64
	backlog         int64 // open loop: requests due before the end but never sent
	elapsed         time.Duration
	// The open loop's schedule: per requests every interval for d, of
	// which the first sent were sent.
	d, interval time.Duration
	per, sent   int64
}

func (p *phase) predictP(q float64) float64 { return quantile(ms(p.predLat), q) }

// missedP99 is the predict p99 in ms counting the predicts that missed
// the limit without a latency: a failed one as infinitely late, and an
// unsent one due at least limitMS before the end of the phase, which a
// growing backlog leaves behind, at the wait it had reached by the end.
func (p *phase) missedP99(limitMS float64) float64 {
	xs := ms(p.predLat)
	for i := int64(0); i < p.predFailed; i++ {
		xs = append(xs, math.Inf(1))
	}
	if p.interval > 0 {
		// Requests go out in schedule order, so the unsent ones are the
		// requests from p.sent on; a predict is every per-th request.
		cut := p.d - time.Duration(limitMS*float64(time.Millisecond))
		for j := p.sent; ; j++ {
			due := time.Duration(j/p.per) * p.interval
			if due > cut {
				break
			}
			if j%p.per == 0 {
				xs = append(xs, float64(p.d-due)/float64(time.Millisecond))
			}
		}
	}
	return quantile(xs, 0.99)
}

// run drives t for d. rate 0 is a closed loop: procs senders each send
// their next request when the previous reply arrives. rate > 0 is an open
// loop on a fixed schedule of rate predict slots per second (a mix sends an
// ingest in the same slot): procs senders take due requests in order, and
// a request due while every sender is busy waits, late, in the generator.
func (c *client) run(t *traffic, rate float64, d time.Duration) *phase {
	per := int64(1)
	if t.ingest != nil {
		per = 2
	}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		out    = &phase{}
		wg     sync.WaitGroup
		start  = time.Now()
		end    = start.Add(d)
		sentAt atomic.Int64
	)
	for w := 0; w < c.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				local phase
				buf   bytes.Buffer
			)
			for {
				j := next.Add(1) - 1
				slot, kind := j/per, j%per
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(slot) * interval)
					if !due.Before(end) {
						break
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				}
				sent := time.Now()
				if !sent.Before(end) {
					break
				}
				sentAt.Add(1)
				i := int(slot % int64(len(t.predict)))
				local.attempted++
				if kind == 0 {
					el, ok := c.post("/v1/predict", t.predict[i], t.expect[i], &buf)
					if !ok {
						local.failed++
						local.predFailed++
						continue
					}
					lat := time.Since(due)
					local.predLat = append(local.predLat, lat)
					local.predRows += int64(t.rowsPer)
					if c.trace && el > 0 {
						local.rttUS = append(local.rttUS, float64(time.Since(sent).Microseconds()-el))
					}
				} else {
					if _, ok := c.post("/v1/ingest", t.ingest[i], t.ingestOK, &buf); !ok {
						local.failed++
						continue
					}
					local.ingLat = append(local.ingLat, time.Since(due))
					local.ingRows += int64(t.rowsPer)
				}
				if rate > 0 {
					local.late = append(local.late, sent.Sub(due))
				}
			}
			mu.Lock()
			out.predLat = append(out.predLat, local.predLat...)
			out.ingLat = append(out.ingLat, local.ingLat...)
			out.late = append(out.late, local.late...)
			out.rttUS = append(out.rttUS, local.rttUS...)
			out.predRows += local.predRows
			out.ingRows += local.ingRows
			out.attempted += local.attempted
			out.failed += local.failed
			out.predFailed += local.predFailed
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	if rate > 0 {
		slots := int64((d + interval - 1) / interval)
		out.d, out.interval, out.per, out.sent = d, interval, per, sentAt.Load()
		out.backlog = slots*per - out.sent
	}
	return out
}

// maxRate walks a ladder of offered predict rates and returns the highest
// rate whose rung passed, interpolating p99 linearly between the last
// passing and the first failing rung so the figure is continuous.
func maxRate(rates, p99s []float64, pass []bool, limitMS float64) float64 {
	for k := range rates {
		if pass[k] {
			continue
		}
		if k == 0 {
			return rates[0] * limitMS / max(p99s[0], limitMS)
		}
		lo, hi := rates[k-1], rates[k]
		plo, phi := p99s[k-1], p99s[k]
		if phi <= plo || phi <= limitMS {
			return lo
		}
		return lo + (hi-lo)*(limitMS-plo)/(phi-plo)
	}
	return rates[len(rates)-1]
}

// metricsDoc is the part of GET /v1/metrics the benchmark reads.
type metricsDoc struct {
	Batching *struct {
		ShedTotal         int64   `json:"shed_total"`
		BatchesTotal      int64   `json:"batches_total"`
		CoalescedRows     histDoc `json:"coalesced_rows"`
		CoalescedRequests histDoc `json:"coalesced_requests"`
	} `json:"batching"`
}

type histDoc struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

func (c *client) metrics() (*metricsDoc, error) {
	resp, err := c.hc.Get(c.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	if doc.Batching == nil {
		return nil, fmt.Errorf("/v1/metrics has no batching section")
	}
	return &doc, nil
}

// postAll sends bodies one after another on one connection, for loads the
// benchmark does not time (filling the ingest window).
func (c *client) postAll(path string, bodies [][]byte, want []byte) error {
	var buf bytes.Buffer
	for i, b := range bodies {
		if _, ok := c.post(path, b, want, &buf); !ok {
			return fmt.Errorf("%s body %d failed: %s", path, i, truncate(buf.String()))
		}
	}
	return nil
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
