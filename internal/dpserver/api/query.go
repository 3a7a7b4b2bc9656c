package api

import (
	"dptrace/internal/obs"
	"dptrace/internal/trace"
)

// Filter restricts the packets a query sees. Zero-valued fields are
// inactive; pointers distinguish absent from zero.
type Filter struct {
	DstPort *int `json:"dstPort,omitempty"`
	SrcPort *int `json:"srcPort,omitempty"`
	MinLen  *int `json:"minLen,omitempty"`
	Proto   *int `json:"proto,omitempty"`
}

// MatchHeader reports whether the packet with header p passes the
// filter; a nil filter passes everything. Every field a filter reads is
// a header field.
func (f *Filter) MatchHeader(p *trace.Header) bool {
	if f == nil {
		return true
	}
	if f.DstPort != nil && int(p.DstPort) != *f.DstPort {
		return false
	}
	if f.SrcPort != nil && int(p.SrcPort) != *f.SrcPort {
		return false
	}
	if f.MinLen != nil && int(p.Len) < *f.MinLen {
		return false
	}
	if f.Proto != nil && int(p.Proto) != *f.Proto {
		return false
	}
	return true
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Analyst string  `json:"analyst"`
	Dataset string  `json:"dataset"`
	Query   string  `json:"query"` // a kind: dpserver.PacketKinds
	Epsilon float64 `json:"epsilon"`
	Filter  *Filter `json:"filter,omitempty"`
	// MinBytes applies to the hosts query (paper §2.3 threshold).
	MinBytes int `json:"minBytes,omitempty"`
	// BucketStep applies to the CDF queries.
	BucketStep int64 `json:"bucketStep,omitempty"`
	// Fraction selects the rank for the lenquantile query (0 defaults
	// to 0.5, the median).
	Fraction float64 `json:"fraction,omitempty"`
	// SketchEps is lenquantile's rank-accuracy target for the
	// underlying mergeable summary (0 selects the engine default;
	// public knowledge, no ε cost).
	SketchEps float64 `json:"sketchEps,omitempty"`
	// Key is the target for the srcfreq query: a source IP in dotted
	// form, e.g. "10.0.0.1".
	Key string `json:"key,omitempty"`
	// IdempotencyKey, when set, makes the query at-most-once per
	// dataset/analyst: the first execution's response is stored and
	// replayed byte-identically on retries instead of re-charging ε.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// QueryResponse is the success body.
type QueryResponse struct {
	Values []float64 `json:"values"`
	// Buckets accompanies CDF queries: the upper edge of each value.
	Buckets []int64 `json:"buckets,omitempty"`
	// NoiseStd is the standard deviation of the added noise, public
	// knowledge the analyst uses to judge significance.
	NoiseStd float64 `json:"noiseStd"`
	// Spent and Remaining describe the analyst's budget after this
	// query. Remaining is -1 when the budget is unlimited (JSON has
	// no infinity).
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	// Profile is the query's execution profile, present when the
	// request carried the X-DP-Explain header. It is redacted (no
	// record counts, no worker counts — see DESIGN.md §S31) and costs
	// no extra ε.
	Profile *obs.Profile `json:"profile,omitempty"`
}

// AnalystUsage summarizes one analyst's activity on one dataset, so
// the owner's ledger is queryable rather than dump-only. Requested is
// the sum of ε values analysts asked for; Charged is what the ledger
// actually drew (higher when derivations amplify sensitivity, zero
// for refusals); Spent is the policy's own ground truth, which equals
// the ledger's Charged sum unless audit entries have been evicted.
type AnalystUsage struct {
	Analyst   string  `json:"analyst"`
	Queries   int     `json:"queries"`
	Requested float64 `json:"requested"`
	Charged   float64 `json:"charged"`
	Spent     float64 `json:"spent"`
}

// DatasetInfo describes one hosted dataset in GET /v1/datasets, an
// owner-facing route: it lists every analyst's usage and the exact
// record count.
type DatasetInfo struct {
	Name           string  `json:"name"`
	TotalSpent     float64 `json:"totalSpent"`
	TotalRemaining float64 `json:"totalRemaining"`
	// Records is the dataset's live record count — the static load
	// plus everything ingested so far. A dataset's size is private
	// (DESIGN.md §S1: count is a Laplace release), so it is shown to
	// the owner only.
	Records int `json:"records"`
	// IngestedBatches counts batches applied via /v1/ingest.
	IngestedBatches uint64         `json:"ingestedBatches,omitempty"`
	Analysts        []AnalystUsage `json:"analysts,omitempty"`
}

// HealthStatus is the GET /v1/healthz body. It always answers 200
// while the process lives — liveness, not readiness (see /readyz).
type HealthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Datasets      int     `json:"datasets"`
	Goroutines    int     `json:"goroutines"`
	AuditEntries  int     `json:"auditEntries"`
	Degraded      bool    `json:"degraded,omitempty"`
	LedgerError   string  `json:"ledgerError,omitempty"`
}

// ReadyStatus is the GET /v1/readyz body: readiness, distinct from
// /healthz liveness. A degraded server (frozen or degraded ledger, or
// a drain in progress) is alive — read-only endpoints serve — but not
// ready for spending traffic.
type ReadyStatus struct {
	Ready  bool   `json:"ready"`
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// Role is "primary" or "follower" when the server replicates its
	// ledger, empty for a standalone server.
	Role string `json:"role,omitempty"`
	// Repl carries the replication detail when Role is set.
	Repl *ReplStatus `json:"repl,omitempty"`
}

// ReplStatus describes a replicating node for /readyz: its role, link
// health, and position gap. On a follower, LagSeq is the number of
// primary-committed events not yet durably applied locally — the
// promote-safety signal (0 = caught up). On a primary, LagSeq is the
// slowest connected follower's un-acked backlog and Followers counts
// connected subscribers.
type ReplStatus struct {
	Role      string `json:"role"`
	Connected bool   `json:"connected"`
	LagSeq    uint64 `json:"lagSeq"`
	Epoch     uint64 `json:"epoch"`
	Followers int    `json:"followers,omitempty"`
}

// PromoteResult is the POST /v1/admin/promote success body: the node
// is now the primary, at the (durably bumped) fencing epoch.
type PromoteResult struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
}
