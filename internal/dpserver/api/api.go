// Package api is the single source of truth for the server's /v1 wire
// contract: every request and response struct, the uniform error
// envelope and its stable codes, the protocol headers and the ingest
// batch formats (the query kinds are internal/dpserver's kind table).
// internal/dpserver serves these shapes and internal/dpclient consumes
// them — both import this package instead of keeping duplicated struct
// literals, so a contract change is one edit that the compiler
// propagates to both sides.
//
// The package is pure data: no handlers, no transport, no privacy
// machinery. It may import internal/trace (a Filter matches a packet)
// and internal/obs (redacted execution profiles ride in query
// responses), and nothing else of the engine.
package api

// Protocol headers.
const (
	// TimeoutHeader asks for a per-request execution deadline in
	// milliseconds; the server caps it at its configured maximum.
	TimeoutHeader = "X-DP-Timeout-Ms"

	// IdempotencyHeader carries an idempotency key for endpoints whose
	// body has no idempotencyKey field.
	IdempotencyHeader = "X-DP-Idempotency-Key"

	// ExplainHeader ("true" or "1") asks for the query's redacted
	// execution profile in the response, at zero extra ε.
	ExplainHeader = "X-DP-Explain"
)

// Error codes of the v1 envelope. Clients branch on these, never on
// message text.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeBudgetExhausted  = "budget_exhausted"
	CodeCanceled         = "canceled"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeOverloaded       = "overloaded"
	CodeShuttingDown     = "shutting_down"
	CodeLedgerRefused    = "ledger_refused"
	CodeNotPrimary       = "not_primary"
	CodeNotFollower      = "not_follower"
	CodeTooLarge         = "too_large"
	CodeInternal         = "internal"
)

// Error is the uniform v1 error envelope: a stable code, a human
// message, and whether a retry can succeed. Budget errors carry the
// analyst's remaining allowance; errors after a partial multi-step
// execution report the ε actually charged (a paid-for failure must
// not be blindly retried — that is what idempotency keys are for).
type Error struct {
	Code      string  `json:"code"`
	Message   string  `json:"message"`
	Retryable bool    `json:"retryable"`
	Remaining float64 `json:"remaining,omitempty"`
	Charged   float64 `json:"charged,omitempty"`
}
