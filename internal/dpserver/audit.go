package dpserver

import (
	"net/http"
	"strconv"
	"time"

	"dptrace/internal/ledger"
)

// AuditEntry records one query attempt for the data owner's ledger.
// The paper's §7 governance ("limiting the total privacy cost per
// analyst or across all analysts") presumes the owner can see who
// spent what; entries record request metadata and outcome — never
// data. Refusals are logged too: a refusal consumes no budget but the
// owner still wants the attempt visible. Queries refused at the door
// never execute and are not entries.
type AuditEntry struct {
	Time    time.Time `json:"time"`
	Analyst string    `json:"analyst"`
	Dataset string    `json:"dataset"`
	Query   string    `json:"query"`
	Epsilon float64   `json:"epsilon"`
	// Charged is the budget this request drew, as metered on its own
	// agent (0 for refused queries). It can exceed Epsilon when the
	// query's derivation amplifies sensitivity (GroupBy, self-joins).
	Charged float64 `json:"charged"`
	// Outcome is "ok", "refused", or "error".
	Outcome string `json:"outcome"`
}

// auditEntry renders one trail record for the owner.
func auditEntry(rec ledger.AuditRecord) AuditEntry {
	return AuditEntry{
		Time: time.Unix(0, rec.Time), Analyst: rec.Analyst,
		Dataset: rec.Dataset, Query: rec.Query, Epsilon: rec.Epsilon,
		Charged: rec.Charged, Outcome: rec.Outcome,
	}
}

// Audit returns a copy of the server's audit trail, the ledger's fold,
// oldest first.
func (s *Server) Audit() []AuditEntry {
	trail := s.ledger.Audit()
	out := make([]AuditEntry, len(trail))
	for i, rec := range trail {
		out[i] = auditEntry(rec)
	}
	return out
}

// handleAudit serves GET /v1/audit with optional ?analyst=, ?dataset=,
// and ?outcome= filters; ?limit=N keeps only the N most recent
// matches. This endpoint is for the data owner; expose it accordingly.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	analyst := r.URL.Query().Get("analyst")
	dataset := r.URL.Query().Get("dataset")
	outcome := r.URL.Query().Get("outcome")
	limit := -1
	if lStr := r.URL.Query().Get("limit"); lStr != "" {
		l, err := strconv.Atoi(lStr)
		if err != nil || l < 0 {
			writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "limit must be a non-negative integer"})
			return
		}
		limit = l
	}
	out := []AuditEntry{}
	for _, rec := range s.ledger.Audit() {
		if analyst != "" && rec.Analyst != analyst {
			continue
		}
		if dataset != "" && rec.Dataset != dataset {
			continue
		}
		if outcome != "" && rec.Outcome != outcome {
			continue
		}
		out = append(out, auditEntry(rec))
	}
	if limit >= 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, http.StatusOK, out)
}
