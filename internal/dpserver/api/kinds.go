package api

import "strings"

// QueryKind describes one entry of the query-kind registry: the
// vocabulary POST /v1/query (and the kind-specific endpoints) accept.
// The registry exists so the server's dispatch, the client's helpers,
// and load tools like cmd/dploadgen agree on one list instead of each
// hard-coding its own.
type QueryKind struct {
	// Name is the wire value of the "query" field.
	Name string
	// Dataset is the dataset kind the query runs over: "packet",
	// "link", or "hop".
	Dataset string
	// Endpoint is the canonical /v1 path serving the kind.
	Endpoint string
	// NeedsKey marks kinds requiring the "key" request field.
	NeedsKey bool
	// Description is one line for tooling and error messages.
	Description string
}

// queryKinds is the closed registry. Order is the documentation order;
// packet kinds first.
var queryKinds = []QueryKind{
	{Name: "count", Dataset: "packet", Endpoint: "/v1/query", Description: "noisy packet count"},
	{Name: "hosts", Dataset: "packet", Endpoint: "/v1/query", Description: "noisy count of sources sending > minBytes (paper §2.3)"},
	{Name: "lencdf", Dataset: "packet", Endpoint: "/v1/query", Description: "packet-length CDF"},
	{Name: "portcdf", Dataset: "packet", Endpoint: "/v1/query", Description: "destination-port CDF"},
	{Name: "medianlen", Dataset: "packet", Endpoint: "/v1/query", Description: "noisy median packet length"},
	{Name: "rttcdf", Dataset: "packet", Endpoint: "/v1/query", Description: "handshake-RTT CDF"},
	{Name: "losscdf", Dataset: "packet", Endpoint: "/v1/query", Description: "per-flow retransmission-rate CDF"},
	{Name: "lenquantile", Dataset: "packet", Endpoint: "/v1/query", Description: "packet-length quantile from a mergeable rank sketch (fused path)"},
	{Name: "srcfreq", Dataset: "packet", Endpoint: "/v1/query", NeedsKey: true, Description: "per-source packet frequency from a count-min sketch (fused path)"},
	{Name: "distinctsrc", Dataset: "packet", Endpoint: "/v1/query", Description: "distinct sources from HLL-style registers, each source added once"},
	{Name: "loadmatrix", Dataset: "link", Endpoint: "/v1/query/loadmatrix", Description: "noisy link×bin count matrix at one ε"},
	{Name: "monitoravgs", Dataset: "hop", Endpoint: "/v1/query/monitoravgs", Description: "per-monitor noisy average hop counts at one ε"},
}

// QueryKinds returns the registry (a copy; callers may reorder).
func QueryKinds() []QueryKind {
	out := make([]QueryKind, len(queryKinds))
	copy(out, queryKinds)
	return out
}

// KnownQueryKind reports whether name is a registered kind.
func KnownQueryKind(name string) bool {
	for _, k := range queryKinds {
		if k.Name == name {
			return true
		}
	}
	return false
}

// PacketQueryKinds lists the kind names POST /v1/query dispatches on,
// in registry order.
func PacketQueryKinds() []string {
	var names []string
	for _, k := range queryKinds {
		if k.Dataset == "packet" {
			names = append(names, k.Name)
		}
	}
	return names
}

// PacketQueryKindList renders the packet kinds as "a, b, c" for error
// messages.
func PacketQueryKindList() string {
	return strings.Join(PacketQueryKinds(), ", ")
}
