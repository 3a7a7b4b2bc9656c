package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dptrace/internal/analyses/packetdist"
	"dptrace/internal/core"
	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/repl"
	"dptrace/internal/trace"
)

// This file is the layer-by-layer replay of the traced run. The
// benchmark measures layers from outside only, so instead of spans
// inside the server it re-enacts a request in its own process, calling
// each layer the way the server does, each call wrapped in a span:
//
//	query:  dpclient encode → api decode → (snapshot) → the core/sketch/
//	        analyses call → the ledger appends, with the event shapes read
//	        back from this run's WAL → repl quorum append → api encode →
//	        dpclient decode
//	ingest: codec parse → ingest.Pipeline.Submit → ledger append
//
// A layer's self time is its span minus its children (tracer.selfTimes).

// enginePipeline is one query kind's operator pipeline, exactly as
// dpserver.runQuery composes it.
func enginePipeline(q *core.Queryable[trace.Packet], req *api.QueryRequest) (*api.QueryResponse, error) {
	match := func(p trace.Packet) bool { return req.Filter.Match(&p) }
	switch req.Query {
	case "count":
		v, err := core.WhereRecorded(q, match).NoisyCount(req.Epsilon)
		return &api.QueryResponse{Values: []float64{v}, NoiseStd: noise.LaplaceStd(req.Epsilon)}, err
	case "hosts":
		grouped := core.GroupBy(core.WhereRecorded(q, match), func(p trace.Packet) trace.IPv4 { return p.SrcIP })
		heavy := core.WhereRecorded(grouped, func(g core.Group[trace.IPv4, trace.Packet]) bool {
			total := 0
			for _, p := range g.Items {
				total += int(p.Len)
			}
			return total > req.MinBytes
		})
		v, err := heavy.NoisyCount(req.Epsilon)
		return &api.QueryResponse{Values: []float64{v}, NoiseStd: 2 * noise.LaplaceStd(req.Epsilon)}, err
	case "lencdf":
		buckets := packetdist.LengthBuckets(req.BucketStep)
		values, err := packetdist.PrivateLengthCDF(core.WhereRecorded(q, match), req.Epsilon, buckets)
		return &api.QueryResponse{Values: values, Buckets: buckets, NoiseStd: noise.LaplaceStd(req.Epsilon)}, err
	case "lenquantile":
		v, err := core.StreamNoisyQuantile(q.Stream().Where(match), req.Epsilon, req.Fraction, req.SketchEps,
			func(p trace.Packet) float64 { return float64(p.Len) })
		return &api.QueryResponse{Values: []float64{v}}, err
	case "distinctsrc":
		v, err := core.StreamNoisyDistinctSketch(q.Stream().Where(match), req.Epsilon,
			func(p trace.Packet) string { return p.SrcIP.String() })
		return &api.QueryResponse{Values: []float64{v}, NoiseStd: noise.LaplaceStd(req.Epsilon)}, err
	}
	return nil, fmt.Errorf("replay: no pipeline for kind %q", req.Query)
}

// engineSpan names the span (and per-layer metric) of each kind's
// engine call.
var engineSpan = map[string]string{
	"count":       "core.where_count",
	"hosts":       "core.groupby_hosts",
	"lencdf":      "core.partition_lencdf",
	"lenquantile": "core.stream_quantile",
	"distinctsrc": "core.stream_distinct",
}

// replayLedgers are the fresh ledgers the replay appends to: one on the
// run's ledger root (tmpfs), one on the checkout's disk, and a
// primary/follower pair for the quorum append.
type replayLedgers struct {
	tmpfs, disk *ledger.Ledger
	primary     *repl.Primary
	primaryLed  *ledger.Ledger
	follower    *repl.Follower
	followerLed *ledger.Ledger
}

func openReplayLedgers(root string) (*replayLedgers, error) {
	open := func(dir string) (*ledger.Ledger, error) {
		led, err := ledger.Open(ledger.Options{Dir: dir, Fsync: ledger.FsyncAlways})
		if err != nil {
			return nil, err
		}
		// The replayed events reference the dataset; register it first.
		return led, led.Append(ledger.Event{Type: ledger.EventDatasetCreated, Dataset: dataset, Kind: "packet",
			Total: ledger.EncodeBudget(math.Inf(1)), PerAnalyst: ledger.EncodeBudget(math.Inf(1))})
	}
	rl := &replayLedgers{}
	var err error
	if rl.tmpfs, err = open(filepath.Join(root, "replay-tmpfs")); err != nil {
		return nil, err
	}
	if rl.disk, err = open(filepath.Join(outDir, fmt.Sprintf("replay-disk-%d", time.Now().UnixNano()))); err != nil {
		return nil, err
	}
	if rl.primaryLed, err = open(filepath.Join(root, "replay-primary")); err != nil {
		return nil, err
	}
	if rl.followerLed, err = ledger.Open(ledger.Options{Dir: filepath.Join(root, "replay-follower"), Fsync: ledger.FsyncAlways}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl.primary = repl.NewPrimary(rl.primaryLed, repl.PrimaryConfig{Name: "replay-primary", MinSync: 1, AckTimeout: 10 * time.Second})
	go rl.primary.Serve(ln)
	if rl.follower, err = repl.NewFollower(rl.followerLed, repl.FollowerConfig{Primary: ln.Addr().String(), Name: "replay-follower"}); err != nil {
		return nil, err
	}
	rl.follower.Start()
	deadline := time.Now().Add(10 * time.Second)
	for rl.primary.Connected() < 1 || rl.follower.Applied() != rl.primaryLed.CommittedSeq() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replay follower did not catch up")
		}
		time.Sleep(time.Millisecond)
	}
	return rl, nil
}

func (rl *replayLedgers) close() {
	if rl.primary != nil {
		rl.primary.Close()
	}
	if rl.follower != nil {
		rl.follower.Close()
	}
	for _, led := range []*ledger.Ledger{rl.tmpfs, rl.disk, rl.primaryLed, rl.followerLed} {
		if led != nil {
			led.Close()
		}
	}
	if rl.disk != nil {
		_ = os.RemoveAll(rl.disk.Dir())
	}
}

// walShapes reads back from dir's WAL one event of each type a spending
// query journals, so the replay appends what the run really appended
// (same fields, same body sizes).
func walShapes(dir string) (map[string]ledger.Event, error) {
	shapes := map[string]ledger.Event{}
	err := ledger.Events(dir, func(ev ledger.Event) error {
		switch ev.Type {
		case ledger.EventCharge, ledger.EventAudit, ledger.EventIdemReply, ledger.EventStandingWindow:
			ev.Seq, ev.Time = 0, 0
			shapes[ev.Type] = ev
		}
		return nil
	})
	return shapes, err
}

// registerReplayStanding journals, on the replay ledger, a registration
// for the standing query whose window events are about to be replayed
// (the ledger's state machine refuses a window of an unknown query).
func registerReplayStanding(led *ledger.Ledger, window ledger.Event) error {
	return led.Append(ledger.Event{
		Type: ledger.EventStandingRegistered, Dataset: window.Dataset, Analyst: window.Analyst,
		Standing: window.Standing, Query: "count", Epsilon: window.Charged,
		Reservation: 1e6, Width: batchRecords, Stride: batchRecords,
	})
}

// replayQuery re-enacts one query request layer by layer under request
// identifier id. packets is the snapshot the request ran against;
// shapes the journal events to append (nil for a server without a
// ledger); quorum adds the replicated append.
func replayQuery(tr *tracer, id string, req api.QueryRequest, packets []trace.Packet, src noise.Source,
	shapes map[string]ledger.Event, rl *replayLedgers, quorum bool) (allocMB float64, err error) {
	root := tr.open(id, "replay.query", 0)
	defer func() { tr.end(root, 1) }()

	var wire []byte
	tr.in(id, "dpclient.encode", root, func() int64 {
		req.Analyst = "replay"
		req.IdempotencyKey = dpclient.NewIdempotencyKey()
		wire, err = json.Marshal(req)
		return int64(len(wire))
	})
	if err != nil {
		return 0, err
	}
	var decoded api.QueryRequest
	tr.in(id, "api.query_decode", root, func() int64 {
		dec := json.NewDecoder(bytes.NewReader(wire))
		dec.DisallowUnknownFields()
		err = dec.Decode(&decoded)
		return int64(len(wire))
	})
	if err != nil {
		return 0, err
	}
	var resp *api.QueryResponse
	policy := core.NewAnalystPolicy(math.Inf(1), math.Inf(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.in(id, engineSpan[decoded.Query], root, func() int64 {
		q := core.NewQueryableFor(packets, policy.AgentFor(decoded.Analyst), src)
		resp, err = enginePipeline(q, &decoded)
		return int64(len(packets))
	})
	runtime.ReadMemStats(&after)
	allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if err != nil {
		return 0, err
	}
	var body []byte
	tr.in(id, "api.response_encode", root, func() int64 {
		resp.Spent = policy.SpentBy(decoded.Analyst)
		resp.Remaining = -1
		body, err = json.Marshal(resp)
		return int64(len(body))
	})
	if err != nil {
		return 0, err
	}
	for _, typ := range []string{ledger.EventCharge, ledger.EventAudit, ledger.EventIdemReply} {
		ev, ok := shapes[typ]
		if !ok {
			continue
		}
		tr.in(id, "ledger.append", root, func() int64 { err = rl.tmpfs.Append(ev); return 1 })
		if err != nil {
			return 0, err
		}
		tr.in(id, "ledger.append_disk", root, func() int64 { err = rl.disk.Append(ev); return 1 })
		if err != nil {
			return 0, err
		}
		if quorum {
			tr.in(id, "repl.quorum_append", root, func() int64 { err = rl.primary.Append(ev); return 1 })
			if err != nil {
				return 0, err
			}
		}
	}
	tr.in(id, "dpclient.decode", root, func() int64 {
		var qr api.QueryResponse
		err = json.Unmarshal(body, &qr)
		return int64(len(body))
	})
	return allocMB, err
}

// replayIngest re-enacts one ingest batch: the codec alone, then the
// pipeline (which decodes again inside — its self time minus the codec
// span is the pipeline's own cost), then the journal events one batch
// causes under the section's standing queries.
func replayIngest(tr *tracer, id, contentType string, body []byte, pipe *ingest.Pipeline,
	shapes map[string]ledger.Event, windows int, rl *replayLedgers) error {
	root := tr.open(id, "replay.ingest", 0)
	defer func() { tr.end(root, batchRecords) }()
	codec := "trace.ndjson_parse"
	if contentType == api.ContentTypeDPTR {
		codec = "trace.dptr_read"
	}
	var err error
	tr.in(id, codec, root, func() int64 {
		var d ingest.Decoded
		d, err = ingest.Decode(ingest.KindPacket, contentType, body)
		return int64(d.Records())
	})
	if err != nil {
		return err
	}
	tr.in(id, "ingest.pipeline_submit", root, func() int64 {
		size := int64(len(body))
		if err = pipe.Reserve(size); err != nil {
			return 0
		}
		var n int
		n, err = pipe.Submit(&ingest.Job{Kind: ingest.KindPacket, ContentType: contentType, Data: body,
			Apply: func(ingest.Decoded) error { return nil }}, size)
		return int64(n)
	})
	if err != nil {
		return err
	}
	if ev, ok := shapes[ledger.EventStandingWindow]; ok {
		for w := 0; w < windows; w++ {
			tr.in(id, "ledger.append", root, func() int64 { err = rl.tmpfs.Append(ev); return 1 })
			if err != nil {
				return err
			}
		}
	}
	if ev, ok := shapes[ledger.EventIdemReply]; ok {
		tr.in(id, "ledger.append", root, func() int64 { err = rl.tmpfs.Append(ev); return 1 })
	}
	return err
}

// cannedTransport answers every request with one fixed 200 body: what
// is left of a dpclient call is the client's own encode, glue and
// decode.
type cannedTransport struct{ body []byte }

func (t cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"application/json"}},
		Body:    io.NopCloser(bytes.NewReader(t.body)),
		Request: r,
	}, nil
}

// clientOverhead is dpclient.Query against the canned transport, median
// of n.
func clientOverhead(n int, req api.QueryRequest) (measurement, error) {
	body, _ := json.Marshal(api.QueryResponse{Values: []float64{1234.5}, NoiseStd: 28.28, Spent: 1.5, Remaining: -1})
	c := dpclient.New("http://canned.invalid", "replay",
		dpclient.WithHTTPClient(&http.Client{Transport: cannedTransport{body: body}}),
		dpclient.WithRetryPolicy(dpclient.NoRetry()))
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.Query(context.Background(), req); err != nil {
			return measurement{}, err
		}
		us = append(us, micros(time.Since(t0)))
	}
	return measurement{Value: median(us), Unit: "us", Samples: n}, nil
}
