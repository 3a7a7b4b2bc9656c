package dpserver

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/analyses/packetdist"
	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// queryKind is one served query kind. Every kind is declared once, in
// queryKinds: /v1/query runs it through the one envelope (execute),
// standing registration admits it, and dpquery lists it (PacketKinds).
type queryKind struct {
	name        string
	description string
	// widestStep is a CDF kind's widest bucketStep: one edge must fall
	// inside the kind's domain, and no edge may overflow an int64. Zero
	// for a kind without buckets.
	widestStep int64
	// check refuses other parameters the kind could never execute with,
	// naming the parameter; nil when there are none.
	check func(*api.QueryRequest) error
	// run executes the kind over one query's packets, already through
	// the request filter, and returns the success body, which the
	// envelope completes with the analyst's budget.
	run func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error)
}

var queryKinds = []queryKind{
	{name: "count", description: "noisy packet count",
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			v, err := packets.NoisyCount(req.Epsilon)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
	{name: "hosts", description: "noisy count of sources sending more than minBytes (paper §2.3)",
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			minBytes := orDefault(req.MinBytes, 1024)
			bytesBySource := core.GroupFold(packets,
				func(p trace.Header) trace.IPv4 { return p.SrcIP },
				func(total int, p trace.Header) int { return total + int(p.Len) },
				func(a, b int) int { return a + b })
			heavy := bytesBySource.Stream().Where(func(g core.Folded[trace.IPv4, int]) bool { return g.Value > minBytes })
			v, err := heavy.NoisyCount(req.Epsilon)
			return value(v, err, 2*noise.LaplaceStd(req.Epsilon)) // GroupBy doubles the sensitivity
		}},
	{name: "lencdf", description: "packet-length CDF", widestStep: 1520,
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			buckets := packetdist.LengthBuckets(orDefault(req.BucketStep, 16))
			values, err := packetdist.LengthCDF(packets, req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "portcdf", description: "destination-port CDF", widestStep: 65536,
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			buckets := packetdist.PortBuckets(orDefault(req.BucketStep, 1024))
			values, err := packetdist.PortCDF(packets, req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "medianlen", description: "noisy median packet length",
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			v, err := core.NoisyMedian(packets, req.Epsilon, 0, math.MaxUint16, func(p trace.Header) int64 { return int64(p.Len) })
			return value(float64(v), err, 0) // exponential mechanism: no additive noise scale
		}},
	{name: "rttcdf", description: "handshake-RTT CDF", widestStep: math.MaxInt64 / 64,
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 10), 64) // ms
			values, err := flowstats.PrivateRTTCDF(packets.Materialize(), req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "losscdf", description: "per-flow retransmission-rate CDF", widestStep: math.MaxInt64 / 41,
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 25), 41) // permille
			values, err := flowstats.PrivateLossCDF(packets.Materialize(), req.Epsilon, 10, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "lenquantile", description: "packet-length quantile (fraction; 0 is the median) from a mergeable rank summary",
		check: func(req *api.QueryRequest) error {
			switch {
			case !(req.Fraction >= 0 && req.Fraction <= 1):
				return fmt.Errorf("fraction %v is outside [0, 1] (0 selects the median)", req.Fraction)
			case !(req.SketchEps >= 0 && req.SketchEps < 1):
				return fmt.Errorf("sketchEps %v is outside (0, 1) (0 selects the default)", req.SketchEps)
			}
			return nil
		},
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			fraction := req.Fraction
			if fraction == 0 {
				fraction = 0.5
			}
			v, err := core.NoisyQuantile(packets, req.Epsilon, fraction, req.SketchEps, func(p trace.Header) float64 { return float64(p.Len) })
			return value(v, err, 0)
		}},
	{name: "srcfreq", description: "noisy count of packets from one source (key)",
		check: func(req *api.QueryRequest) error {
			if _, err := trace.ParseIPv4(req.Key); err != nil {
				return fmt.Errorf(`srcfreq requires "key": the target source IP, e.g. "10.0.0.1" (%v)`, err)
			}
			return nil
		},
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			ip, _ := trace.ParseIPv4(req.Key) // check refused a key that does not parse
			v, err := packets.Where(func(p trace.Header) bool { return p.SrcIP == ip }).NoisyCount(req.Epsilon)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
	{name: "distinctsrc", description: "distinct sources from HLL-style registers, each source added once",
		run: func(packets core.Stream[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
			// Each source once, then the registers: an add is a register max,
			// so a source's later packets would change nothing (DESIGN §S32).
			srcIP := func(p trace.Header) trace.IPv4 { return p.SrcIP }
			sources := core.Distinct(core.StreamSelect(packets, srcIP), func(ip trace.IPv4) trace.IPv4 { return ip })
			v, err := core.NoisyDistinctSketch(sources, req.Epsilon, trace.IPv4.String)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
}

// kindFor looks up req's kind and checks its parameters, so a query
// with a kind or parameters it could never execute with is refused
// before it builds a pipeline or charges.
func kindFor(req *api.QueryRequest) (*queryKind, error) {
	for i := range queryKinds {
		k := &queryKinds[i]
		if k.name != req.Query {
			continue
		}
		switch {
		case k.widestStep > 0 && req.BucketStep > k.widestStep:
			return nil, fmt.Errorf("bucketStep %d is wider than %s's domain: at most %d", req.BucketStep, k.name, k.widestStep)
		case k.check != nil:
			if err := k.check(req); err != nil {
				return nil, err
			}
		}
		return k, nil
	}
	names := make([]string, len(queryKinds))
	for i, k := range queryKinds {
		names[i] = k.name
	}
	return nil, fmt.Errorf("unknown query %q (%s)", req.Query, strings.Join(names, ", "))
}

// Kind describes one served packet query kind to tools.
type Kind struct {
	Name        string
	Description string
}

// PacketKinds lists the query kinds, in table order: what /v1/query,
// standing registration and dpquery's local mode accept.
func PacketKinds() []Kind {
	out := make([]Kind, len(queryKinds))
	for i, k := range queryKinds {
		out[i] = Kind{Name: k.name, Description: k.description}
	}
	return out
}

// value is a one-value kind's outcome: its noisy value and the standard
// deviation of the noise added to it.
func value(v float64, err error, noiseStd float64) (*api.QueryResponse, error) {
	if err != nil {
		return nil, err
	}
	return &api.QueryResponse{Values: []float64{v}, NoiseStd: noiseStd}, nil
}

// cdf is a CDF kind's outcome: one noisy value per bucket edge. Each
// CDF analysis charges ε once.
func cdf(buckets []int64, values []float64, err error, epsilon float64) (*api.QueryResponse, error) {
	if err != nil {
		return nil, err
	}
	return &api.QueryResponse{Values: values, Buckets: buckets, NoiseStd: noise.LaplaceStd(epsilon)}, nil
}

// orDefault is v, or def when the request left the field unset.
func orDefault[N int | int64](v, def N) N {
	if v <= 0 {
		return def
	}
	return v
}
