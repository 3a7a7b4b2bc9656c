package api

// Ingest wire contract: POST /v1/ingest/{dataset} appends one batch
// of records to a live dataset. The body is a batch in one of two
// encodings, named by Content-Type:
//
//	application/x-ndjson   one JSON packet per line (see
//	                       internal/trace's PacketJSON)
//	application/x-dptr     the DPTR binary container (same bytes as
//	                       the on-disk packet trace files),
//	                       count-prefixed
//
// A batch either applies atomically or not at all: queries never see
// a half-applied batch, and a batch carrying a (source, seq) identity
// applies at most once — retries replay the first response
// byte-identically (the PR3 idempotency machinery, reused).
//
// The server sheds with 429 + Retry-After when the ingest pipeline's
// watermarks (bytes or batches in flight) are exceeded, 413 when one
// batch exceeds the per-batch byte cap, and 503 while draining or
// while a frozen/degraded ledger has the spend path fail closed (no
// state may change when ε-accounting cannot be journaled; the read
// path keeps serving).

// Ingest content types.
const (
	// ContentTypeNDJSON is newline-delimited JSON records.
	ContentTypeNDJSON = "application/x-ndjson"
	// ContentTypeDPTR is the binary trace container (trace.Write*).
	ContentTypeDPTR = "application/x-dptr"
)

// Ingest headers.
const (
	// BatchSourceHeader names the sending agent. Together with
	// BatchSeqHeader it forms the batch's at-most-once identity,
	// scoped to the dataset.
	BatchSourceHeader = "X-DP-Batch-Source"
	// BatchSeqHeader is the sender's per-source batch sequence number
	// (an opaque token on the wire; clients send monotonic integers).
	// Omitting it makes the batch fire-and-forget: a retry would
	// append twice.
	BatchSeqHeader = "X-DP-Batch-Seq"
)

// IngestPath returns the canonical ingest path for a dataset.
func IngestPath(dataset string) string { return "/v1/ingest/" + dataset }

// IngestResponse is the success body of one applied batch.
type IngestResponse struct {
	Dataset string `json:"dataset"`
	// Records is the number of records this batch appended.
	Records int `json:"records"`
	// TotalRecords is the dataset's record count after the append.
	TotalRecords int `json:"totalRecords"`
	// Batches is the dataset's total applied-batch count after this
	// one (applied batches, not attempts).
	Batches uint64 `json:"batches"`
	// Source and Seq echo the batch identity when one was sent.
	Source string `json:"source,omitempty"`
	Seq    string `json:"seq,omitempty"`
}
