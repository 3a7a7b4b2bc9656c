package dpserver

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/analyses/anomaly"
	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/analyses/packetdist"
	"dptrace/internal/analyses/topology"
	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// queryKind is one served query kind. Every kind is declared once, in
// queryKinds: /v1/query and the two extraction routes run it through
// the one envelope (execute), standing registration admits it, and
// dpquery lists it (PacketKinds).
type queryKind struct {
	name        string
	dataset     ingest.Kind // the dataset kind it runs on
	description string
	// widestStep is a CDF kind's widest bucketStep: one edge must fall
	// inside the kind's domain, and no edge may overflow an int64. Zero
	// for a kind without buckets.
	widestStep int64
	// check refuses other parameters the kind could never execute with,
	// naming the parameter; nil when there are none.
	check func(*QueryRequest) error
	// run executes the kind over a query's input and returns the success
	// body, which the envelope completes.
	run func(in input, req request) (reply, error)
}

// request is a spending query as a kind runs it, whichever route it
// came in on: /v1/query's body, onto which the extraction routes' bodies
// map, and monitoravgs' maxHops, which only that route carries.
type request struct {
	*QueryRequest
	maxHops float64
}

// input is what a kind runs over: one query's snapshot of its dataset,
// behind the query's agent, recorders and context, as the dataset's
// record type — packets already through the request filter — with the
// other two left zero; and the dataset, for its public dimensions (nil
// for packet kinds, which have none).
type input struct {
	packets core.Stream[trace.Packet]
	samples *core.Queryable[trace.LinkSample]
	hops    *core.Queryable[trace.HopRecord]
	d       *dataset
}

// reply is a spending route's success body. The envelope completes
// it with the analyst's budget after the query and, when the request
// asked for it, the redacted execution profile.
type reply interface {
	SetBudget(spent, remaining float64, profile *obs.Profile)
}

var queryKinds = []queryKind{
	{name: "count", dataset: kindPacket, description: "noisy packet count",
		run: func(in input, req request) (reply, error) {
			v, err := in.packets.NoisyCount(req.Epsilon)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
	{name: "hosts", dataset: kindPacket, description: "noisy count of sources sending more than minBytes (paper §2.3)",
		run: func(in input, req request) (reply, error) {
			minBytes := orDefault(req.MinBytes, 1024)
			bytesBySource := core.GroupFold(in.packets,
				func(p trace.Packet) trace.IPv4 { return p.SrcIP },
				func(total int, p trace.Packet) int { return total + int(p.Len) },
				func(a, b int) int { return a + b })
			heavy := bytesBySource.Stream().Where(func(g core.Folded[trace.IPv4, int]) bool { return g.Value > minBytes })
			v, err := heavy.NoisyCount(req.Epsilon)
			return value(v, err, 2*noise.LaplaceStd(req.Epsilon)) // GroupBy doubles the sensitivity
		}},
	{name: "lencdf", dataset: kindPacket, description: "packet-length CDF", widestStep: 1520,
		run: func(in input, req request) (reply, error) {
			buckets := packetdist.LengthBuckets(orDefault(req.BucketStep, 16))
			values, err := packetdist.PrivateLengthCDF(in.packets, req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "portcdf", dataset: kindPacket, description: "destination-port CDF", widestStep: 65536,
		run: func(in input, req request) (reply, error) {
			buckets := packetdist.PortBuckets(orDefault(req.BucketStep, 1024))
			values, err := packetdist.PrivatePortCDF(in.packets, req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "medianlen", dataset: kindPacket, description: "noisy median packet length",
		run: func(in input, req request) (reply, error) {
			v, err := core.NoisyMedian(in.packets, req.Epsilon, packetLen)
			return value(v, err, 0) // exponential mechanism: no additive noise scale
		}},
	{name: "rttcdf", dataset: kindPacket, description: "handshake-RTT CDF", widestStep: math.MaxInt64 / 64,
		run: func(in input, req request) (reply, error) {
			buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 10), 64) // ms
			values, err := flowstats.PrivateRTTCDF(in.packets.Materialize(), req.Epsilon, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "losscdf", dataset: kindPacket, description: "per-flow retransmission-rate CDF", widestStep: math.MaxInt64 / 41,
		run: func(in input, req request) (reply, error) {
			buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 25), 41) // permille
			values, err := flowstats.PrivateLossCDF(in.packets.Materialize(), req.Epsilon, 10, buckets)
			return cdf(buckets, values, err, req.Epsilon)
		}},
	{name: "lenquantile", dataset: kindPacket, description: "packet-length quantile (fraction; 0 is the median) from a mergeable rank summary",
		check: func(req *QueryRequest) error {
			switch {
			case !(req.Fraction >= 0 && req.Fraction <= 1):
				return fmt.Errorf("fraction %v is outside [0, 1] (0 selects the median)", req.Fraction)
			case !(req.SketchEps >= 0 && req.SketchEps < 1):
				return fmt.Errorf("sketchEps %v is outside (0, 1) (0 selects the default)", req.SketchEps)
			}
			return nil
		},
		run: func(in input, req request) (reply, error) {
			fraction := req.Fraction
			if fraction == 0 {
				fraction = 0.5
			}
			v, err := core.NoisyQuantile(in.packets, req.Epsilon, fraction, req.SketchEps, packetLen)
			return value(v, err, 0)
		}},
	{name: "srcfreq", dataset: kindPacket, description: "packets from one source (key) from a count-min summary",
		check: func(req *QueryRequest) error {
			if req.Key == "" {
				return fmt.Errorf(`srcfreq requires "key": the target source IP, e.g. "10.0.0.1"`)
			}
			return nil
		},
		run: func(in input, req request) (reply, error) {
			v, err := core.NoisyFrequency(in.packets, req.Epsilon, func(p trace.Packet) string { return p.SrcIP.String() }, req.Key)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
	{name: "distinctsrc", dataset: kindPacket, description: "distinct sources from HLL-style registers, each source added once",
		run: func(in input, req request) (reply, error) {
			// Each source once, then the registers: an add is a register max,
			// so a source's later packets would change nothing (DESIGN §S32).
			srcIP := func(p trace.Packet) trace.IPv4 { return p.SrcIP }
			sources := core.Distinct(core.StreamSelect(in.packets, srcIP), func(ip trace.IPv4) trace.IPv4 { return ip })
			v, err := core.NoisyDistinctSketch(sources, req.Epsilon, trace.IPv4.String)
			return value(v, err, noise.LaplaceStd(req.Epsilon))
		}},
	{name: "loadmatrix", dataset: kindLink, description: "noisy link×bin count matrix at one ε (§5.3.1, the Fig 4 pipeline's first step)",
		run: func(in input, req request) (reply, error) {
			m, err := anomaly.PrivateLoadMatrix(in.samples, in.d.links, in.d.bins, req.Epsilon)
			if err != nil {
				return nil, err
			}
			return &api.MatrixResponse{Bins: m.Rows, Links: m.Cols, Data: m.Data, NoiseStd: noise.LaplaceStd(req.Epsilon)}, nil
		}},
	{name: "monitoravgs", dataset: kindHop, description: "per-monitor noisy average hop counts at one ε (§5.3.2, the Fig 5 imputation step)",
		run: func(in input, req request) (reply, error) {
			averages, err := topology.MonitorAverages(in.hops, in.d.monitors, req.Epsilon, orDefault(req.maxHops, 64))
			if err != nil {
				return nil, err
			}
			return &api.HopAveragesResponse{Averages: averages}, nil
		}},
}

// kindFor looks up req's kind for a dataset of kind dataset and checks
// its parameters, so a query with a kind or parameters it could never
// execute with is refused before it builds a pipeline or charges.
func kindFor(req *QueryRequest, dataset ingest.Kind) (*queryKind, error) {
	for i := range queryKinds {
		k := &queryKinds[i]
		if k.name != req.Query {
			continue
		}
		switch {
		case k.dataset != dataset:
			return nil, fmt.Errorf("query %q runs on %s datasets, not %s datasets", k.name, k.dataset, dataset)
		case k.widestStep > 0 && req.BucketStep > k.widestStep:
			return nil, fmt.Errorf("bucketStep %d is wider than %s's domain: at most %d", req.BucketStep, k.name, k.widestStep)
		case k.check != nil:
			if err := k.check(req); err != nil {
				return nil, err
			}
		}
		return k, nil
	}
	var names []string
	for _, k := range queryKinds {
		if k.dataset == dataset {
			names = append(names, k.name)
		}
	}
	return nil, fmt.Errorf("unknown query %q (%s)", req.Query, strings.Join(names, ", "))
}

// Kind describes one served packet query kind to tools.
type Kind struct {
	Name        string
	Description string
}

// PacketKinds lists the query kinds that run on packet datasets, in
// table order: what /v1/query, standing registration and dpquery's
// local mode accept.
func PacketKinds() []Kind {
	var out []Kind
	for _, k := range queryKinds {
		if k.dataset == kindPacket {
			out = append(out, Kind{Name: k.name, Description: k.description})
		}
	}
	return out
}

// value is a one-value kind's outcome: its noisy value and the standard
// deviation of the noise added to it.
func value(v float64, err error, noiseStd float64) (reply, error) {
	if err != nil {
		return nil, err
	}
	return &QueryResponse{Values: []float64{v}, NoiseStd: noiseStd}, nil
}

// cdf is a CDF kind's outcome: one noisy value per bucket edge. Each
// CDF analysis charges ε once.
func cdf(buckets []int64, values []float64, err error, epsilon float64) (reply, error) {
	if err != nil {
		return nil, err
	}
	return &QueryResponse{Values: values, Buckets: buckets, NoiseStd: noise.LaplaceStd(epsilon)}, nil
}

// packetLen is a packet's length, the value medianlen and lenquantile
// rank.
func packetLen(p trace.Packet) float64 { return float64(p.Len) }

// orDefault is v, or def when the request left the field unset.
func orDefault[N int | int64 | float64](v, def N) N {
	if v <= 0 {
		return def
	}
	return v
}
