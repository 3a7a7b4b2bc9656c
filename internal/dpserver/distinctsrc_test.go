package dpserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// parentDistinctSrc is distinctsrc as it ran before it kept each source
// once: every packet's source formatted and added to the registers.
// Every other kind runs as served.
func parentDistinctSrc(q *core.Queryable[trace.Header], k *queryKind, req *api.QueryRequest) (*api.QueryResponse, error) {
	if req.Query != "distinctsrc" {
		return runKind(q, k, req)
	}
	var match func(trace.Header) bool
	if req.Filter != nil {
		match = func(p trace.Header) bool { return req.Filter.MatchHeader(&p) }
	}
	v, err := core.NoisyDistinctSketch(q.Stream().Where(match), req.Epsilon,
		func(p trace.Header) string { return p.SrcIP.String() })
	if err != nil {
		return nil, err
	}
	return &api.QueryResponse{Values: []float64{v}, NoiseStd: noise.LaplaceStd(req.Epsilon)}, nil
}

// twinServer hosts packets as "live" on a ledger-backed server that
// executes packet kinds through exec on the given workers. Twins are
// seeded alike, so equal pipelines draw equal noise.
func twinServer(t *testing.T, packets []trace.Packet, opts core.ExecOptions,
	exec func(*core.Queryable[trace.Header], *queryKind, *api.QueryRequest) (*api.QueryResponse, error)) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	led, err := ledger.Open(ledger.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s := New(noise.NewSeededSource(7, 11), WithLedger(led))
	s.execPacket, s.exec = exec, opts
	if err := s.AddPacketTrace("live", packets, math.Inf(1), 1.0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, dir
}

// ledgerTail is a ledger's events with their wall-clock stamps zeroed:
// the append time, and a standing window's fire time inside its body.
func ledgerTail(t *testing.T, dir string) []string {
	t.Helper()
	var lines []string
	if err := ledger.Events(dir, func(ev ledger.Event) error {
		ev.Time = 0
		if ev.Type == ledger.EventStandingWindow {
			var r api.StandingResult
			if err := json.Unmarshal(ev.Body, &r); err != nil {
				return err
			}
			r.Time = 0
			ev.Body, _ = json.Marshal(r)
		}
		b, err := json.Marshal(ev)
		lines = append(lines, string(b))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestDistinctSrcMatchesParentPipeline: distinctsrc keeps each source
// once before the registers, and an add is a register max, so the
// served answer is the parent pipeline's bit for bit. Twin servers, one
// serving and one running parentDistinctSrc, answer the same requests —
// one-shot queries until the per-analyst cap refuses one, then a
// standing query whose windows an ingest closes — and must return the
// same bodies (values, noiseStd, spent, the refusal at zero ε) and
// journal the same ledger. Inputs: empty, one source, all sources
// distinct, and a few sources repeated, at chunkSize ± 1 records, with
// and without a filter, on 1 and 4 workers.
func TestDistinctSrcMatchesParentPipeline(t *testing.T) {
	const chunk = 512 // core's chunkSize
	shapes := map[string]func(i int) trace.IPv4{
		"one-source":   func(int) trace.IPv4 { return 42 },
		"all-distinct": func(i int) trace.IPv4 { return trace.IPv4(0x0a000000 + i) },
		"repeats":      func(i int) trace.IPv4 { return trace.IPv4(i*7919%37 + 1) },
	}
	type input struct {
		name    string
		packets []trace.Packet
	}
	inputs := []input{{"empty", nil}}
	for name, src := range shapes {
		for _, n := range []int{chunk - 1, chunk, chunk + 1} {
			ps := make([]trace.Packet, n)
			for i := range ps {
				ps[i] = trace.Packet{Header: trace.Header{Time: int64(i), SrcIP: src(i), DstIP: 1, DstPort: uint16(80 + 363*(i%3/2)), Proto: 6, Len: 100}}
			}
			inputs = append(inputs, input{fmt.Sprintf("%s/n=%d", name, n), ps})
		}
	}
	port80 := 80
	for _, in := range inputs {
		for _, opts := range []core.ExecOptions{{}, {Workers: 4, Threshold: 1}} {
			for _, filter := range []*api.Filter{nil, {DstPort: &port80}} {
				label := fmt.Sprintf("%s workers=%d filter=%v", in.name, max(opts.Workers, 1), filter != nil)
				_, tsA, dirA := twinServer(t, in.packets, opts, runKind)
				_, tsB, dirB := twinServer(t, in.packets, opts, parentDistinctSrc)
				same := func(what string, a, b func(base string) (int, []byte)) {
					t.Helper()
					codeA, bodyA := a(tsA.URL)
					codeB, bodyB := b(tsB.URL)
					if codeA != codeB || string(bodyA) != string(bodyB) {
						t.Fatalf("%s: %s: served %d %s, parent pipeline %d %s", label, what, codeA, bodyA, codeB, bodyB)
					}
				}
				query := func(base string) (int, []byte) {
					resp, body := postV1(t, base+"/v1/query", api.QueryRequest{Analyst: "a", Dataset: "live",
						Query: "distinctsrc", Epsilon: 0.3, Filter: filter}, nil)
					return resp.StatusCode, body
				}
				answered := func(base string) (int, []byte) {
					code, body := query(base)
					if code != http.StatusOK {
						t.Fatalf("%s: query answered %d %s", label, code, body)
					}
					return code, body
				}
				for i := 0; i < 3; i++ {
					same(fmt.Sprintf("query %d", i), answered, answered)
				}
				refused := func(base string) (int, []byte) {
					code, body := query(base)
					if code != http.StatusForbidden {
						t.Fatalf("%s: the fourth 0.3 against a cap of 1 answered %d %s, want 403", label, code, body)
					}
					return code, body
				}
				same("refusal", refused, refused)

				width := uint64(max(len(in.packets)/3, 1))
				standingRun := func(base string) (int, []byte) {
					resp, body := postV1(t, base+"/v1/standing/live", api.StandingRequest{Analyst: "mon",
						Query: "distinctsrc", Epsilon: 0.05, Reservation: 1, Window: api.StandingWindow{Width: width},
						Filter: filter, ID: "sq"}, nil)
					if resp.StatusCode != http.StatusOK {
						return resp.StatusCode, body
					}
					if len(in.packets) > 0 {
						if resp, body := postIngest(t, base+"/v1/ingest/live", trace.MarshalPacketsNDJSON(in.packets)); resp.StatusCode != http.StatusOK {
							return resp.StatusCode, body
						}
					}
					results, _ := standingResults(t, base, "live", "sq")
					if len(results) != len(in.packets)/int(width) {
						t.Fatalf("%s: %d windows fired, want %d", label, len(results), len(in.packets)/int(width))
					}
					for i := range results {
						results[i].Time = 0
					}
					b, _ := json.Marshal(results)
					return http.StatusOK, b
				}
				same("standing windows", standingRun, standingRun)

				tailA, tailB := ledgerTail(t, dirA), ledgerTail(t, dirB)
				if fmt.Sprint(tailA) != fmt.Sprint(tailB) {
					t.Fatalf("%s: ledger tails differ:\n  served: %v\n  parent: %v", label, tailA, tailB)
				}
			}
		}
	}
}

// firesAfter is a context whose deadline passes at its nth Err call:
// the engine consults Err once before a keyed pass and once per chunk,
// so a pass over several chunks sees it fire mid-way, every run.
type firesAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *firesAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDistinctSrcDeadlineMidPassChargesNothing: the Distinct pass runs
// before the aggregation's charge, so a deadline that fires inside it
// answers 504 at zero ε — where the parent pipeline, scanning after the
// charge, left it standing.
func TestDistinctSrcDeadlineMidPassChargesNothing(t *testing.T) {
	packets := ingestPkts(4 * 512)
	midPass := func(run func(*core.Queryable[trace.Header], *queryKind, *api.QueryRequest) (*api.QueryResponse, error)) func(*core.Queryable[trace.Header], *queryKind, *api.QueryRequest) (*api.QueryResponse, error) {
		return func(q *core.Queryable[trace.Header], k *queryKind, req *api.QueryRequest) (*api.QueryResponse, error) {
			// The third Err call is the second chunk's poll.
			return run(q.WithContext(&firesAfter{Context: context.Background(), n: 3}), k, req)
		}
	}
	for _, tc := range []struct {
		name    string
		run     func(*core.Queryable[trace.Header], *queryKind, *api.QueryRequest) (*api.QueryResponse, error)
		charged float64
	}{
		{"served", runKind, 0},
		{"parent pipeline", parentDistinctSrc, 0.25},
	} {
		s, ts, _ := twinServer(t, packets, core.ExecOptions{}, midPass(tc.run))
		resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{Analyst: "a", Dataset: "live",
			Query: "distinctsrc", Epsilon: 0.25}, nil)
		spent := s.datasets["live"].policy.SpentBy("a")
		if resp.StatusCode != http.StatusGatewayTimeout || spent != tc.charged {
			t.Fatalf("%s: %d %s, spent %v; want 504 with %v charged", tc.name, resp.StatusCode, body, spent, tc.charged)
		}
	}
}
