package core

import (
	"sync"

	"dptrace/internal/noise"
)

// This file implements the budget-policy machinery the paper's §7
// sketches for data owners: sequential composition across analysts
// (costs add, so a shared total budget bounds cumulative leakage) and
// per-analyst caps.

// NewQueryableFor wraps records with an explicit budget agent, for
// policy layers that manage agents themselves (e.g. AnalystPolicy).
// Most callers want NewQueryable.
func NewQueryableFor[T any](records []T, agent Agent, src noise.Source) *Queryable[T] {
	return &Queryable[T]{
		records: records,
		agent:   agent,
		src:     noise.NewLockedSource(src),
		rec:     DefaultRecorder(),
		exec:    gomaxprocsExec(),
	}
}

// AnalystPolicy enforces two simultaneous bounds over one dataset: a
// TOTAL privacy budget across all analysts (differential privacy
// composes additively, so this caps cumulative leakage) and a
// per-analyst cap (no single analyst can consume the whole allowance).
type AnalystPolicy struct {
	mu         sync.Mutex
	total      *RootAgent
	perAnalyst float64
	analysts   map[string]*RootAgent

	// Per-analyst spend journal (see SetSpendJournal); nil = none.
	journalSpend    func(analyst string, epsilon float64) error
	journalRollback func(analyst string, epsilon float64)
}

// NewAnalystPolicy creates a policy with the given bounds. Either may
// be math.Inf(1) to disable that bound.
func NewAnalystPolicy(totalBudget, perAnalystBudget float64) *AnalystPolicy {
	return &AnalystPolicy{
		total:      NewRootAgent(totalBudget),
		perAnalyst: perAnalystBudget,
		analysts:   make(map[string]*RootAgent),
	}
}

// AgentFor returns the budget agent for one analyst: spends are
// charged atomically against both the analyst's cap and the shared
// total. The same analyst name always maps to the same cap.
func (p *AnalystPolicy) AgentFor(analyst string) Agent {
	return newDualAgent(p.analystRoot(analyst), p.total)
}

// SilentAgentFor is AgentFor with journal suppression: accepted
// charges move the same in-memory ledgers (the analyst's cap and the
// shared total, atomically) but skip the per-charge spend journal.
// The caller owns durability for these spends. The standing-query
// scheduler is the intended user: each window's measured charge is
// journaled together with its cursor advance as one atomic
// standing_window event, whose replay folds the same ε into the same
// per-analyst and total sums.
func (p *AnalystPolicy) SilentAgentFor(analyst string) Agent {
	return newDualAgent(silentRoot{p.analystRoot(analyst)}, silentRoot{p.total})
}

func (p *AnalystPolicy) analystRoot(analyst string) *RootAgent {
	p.mu.Lock()
	defer p.mu.Unlock()
	root, ok := p.analysts[analyst]
	if !ok {
		root = NewRootAgent(p.perAnalyst)
		if p.journalSpend != nil {
			root.SetJournal(analystJournal{analyst: analyst, policy: p})
		}
		p.analysts[analyst] = root
	}
	return root
}

// SetSpendJournal installs a spend journal on the policy (see
// SpendJournal): every analyst's accepted charge first passes through
// spend (an error refuses the charge), and rollbacks of applied charges
// pass through rollback. Charges are journaled at the per-analyst agent —
// the shared total is the in-order sum of per-analyst movements, so a
// replayed journal reconstructs both ledgers exactly. Install before
// the policy serves queries; it applies to existing and future
// analysts.
func (p *AnalystPolicy) SetSpendJournal(
	spend func(analyst string, epsilon float64) error,
	rollback func(analyst string, epsilon float64),
) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.journalSpend = spend
	p.journalRollback = rollback
	for analyst, root := range p.analysts {
		root.SetJournal(analystJournal{analyst: analyst, policy: p})
	}
}

// RestoreSpent force-sets recovered cumulative spends — the
// crash-recovery path, bypassing budget checks and journaling.
// perAnalyst maps analyst name to recovered spend; total is the shared
// budget's recovered in-order sum (NOT recomputed from the map, whose
// iteration order would change the float accumulation).
func (p *AnalystPolicy) RestoreSpent(perAnalyst map[string]float64, total float64) {
	for analyst, spent := range perAnalyst {
		p.analystRoot(analyst).restoreSpent(spent)
	}
	p.total.restoreSpent(total)
}

// Budgets returns the policy's configured bounds (the constructor's
// arguments): the shared total and the per-analyst cap. The ledger
// layer re-journals a dataset registration from these when a promoted
// replica discovers it was never persisted.
func (p *AnalystPolicy) Budgets() (total, perAnalyst float64) {
	return p.total.Budget(), p.perAnalyst
}

// analystJournal adapts the policy's journal funcs to one analyst's
// SpendJournal. The funcs are read without the policy lock: they are
// fixed before serving begins (SetSpendJournal contract).
type analystJournal struct {
	analyst string
	policy  *AnalystPolicy
}

func (j analystJournal) JournalSpend(epsilon float64) error {
	return j.policy.journalSpend(j.analyst, epsilon)
}

func (j analystJournal) JournalRollback(epsilon float64) {
	if j.policy.journalRollback != nil {
		j.policy.journalRollback(j.analyst, epsilon)
	}
}

// SpentBy reports one analyst's cumulative privacy cost.
func (p *AnalystPolicy) SpentBy(analyst string) float64 {
	return p.analystRoot(analyst).Spent()
}

// RemainingFor reports how much one analyst may still spend — the
// lesser of their personal remainder and the shared total's.
func (p *AnalystPolicy) RemainingFor(analyst string) float64 {
	personal := p.analystRoot(analyst).Remaining()
	if shared := p.total.Remaining(); shared < personal {
		return shared
	}
	return personal
}

// PerAnalystBudget reports the per-analyst allowance this policy was
// created with (+Inf when unlimited) — the denominator for budget
// burn-rate telemetry.
func (p *AnalystPolicy) PerAnalystBudget() float64 { return p.perAnalyst }

// TotalSpent reports the cumulative cost across all analysts.
func (p *AnalystPolicy) TotalSpent() float64 { return p.total.Spent() }

// TotalRemaining reports the shared budget's remainder.
func (p *AnalystPolicy) TotalRemaining() float64 { return p.total.Remaining() }
