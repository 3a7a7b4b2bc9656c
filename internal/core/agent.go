// Package core implements a differentially-private query engine modeled
// on PINQ (Privacy INtegrated Queries, McSherry SIGMOD'09), the platform
// used by "Differentially-Private Network Trace Analysis" (McSherry &
// Mahajan, SIGCOMM 2010).
//
// A protected dataset is wrapped in a Queryable, which supports SQL-like
// transformations (Where, Select, GroupBy, Join, Concat, Intersect,
// Partition, ...) and noisy aggregations (NoisyCount, NoisySum,
// NoisyAverage, NoisyMedian). Transformations never reveal data; they
// return new Queryables and adjust the sensitivity bookkeeping exactly
// as the paper's Table 1 prescribes. Aggregations charge the dataset's
// privacy budget and perturb their result with noise calibrated to the
// query's sensitivity.
//
// Budget accounting is implemented as a tree of Agents mirroring PINQ's
// design: every Queryable points at an agent; an aggregation run at ε on
// a Queryable with stability s requests s·ε from its agent, which
// forwards (possibly scaled or max-combined) requests up to the root
// agent holding the dataset's total budget.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExceeded is returned when an aggregation would exceed the
// dataset's remaining privacy budget. The paper (§7) relies on this
// refusal to let data owners bound cumulative privacy loss across
// analysts; note that unlike the bit-leakage proposals the paper
// critiques, the refusal itself is not data-dependent.
var ErrBudgetExceeded = errors.New("core: privacy budget exceeded")

// ErrInvalidEpsilon is returned for non-positive or non-finite ε.
var ErrInvalidEpsilon = errors.New("core: epsilon must be positive and finite")

// ErrJournal is returned (wrapped) when a RootAgent's spend journal
// refuses an append: the charge is NOT applied. A spend that could not
// even be journaled must not happen, or a crash would silently re-open
// the budget.
var ErrJournal = errors.New("core: spend journal append failed")

// ErrInternal is returned (wrapped) when an aggregation recovers a
// panic — a bug in user-supplied functions (predicates, selectors, key
// functions) or in the engine itself. The ε-contract matches
// cancellation (ErrCanceled): a panic raised before agent.Apply
// charges zero ε; a panic after Apply leaves the charge standing,
// because the noisy computation may have partially run and the
// conservative reading is that budget was consumed.
var ErrInternal = errors.New("core: internal error (recovered panic)")

// A SpendJournal records budget movements in the order the agent
// accepts them. RootAgent calls JournalSpend BEFORE applying a charge
// (an error refuses the charge) and JournalRollback when a previously
// applied charge is undone by an atomic multi-parent spend.
// Implementations are called with the agent's lock held — which is what
// makes journal order equal acceptance order — so they must not block on
// an fsync or the network there, and must not call back into the agent:
// the server's journal stages the record (ledger.Stage) and makes it
// durable later, in the one commit that precedes the release of the
// answer the charge paid for. Durable-before-release is the journal
// owner's contract, not Apply's.
type SpendJournal interface {
	JournalSpend(epsilon float64) error
	JournalRollback(epsilon float64)
}

// budgetSlack is the ε-comparison tolerance in Apply: ten charges of
// 0.1 against a budget of 1.0 sum to 0.9999999999999999 in float64,
// and a replayed ledger must land on the exact same refusal boundary
// as the live run, so the boundary itself tolerates accumulation
// error well below any real ε.
const budgetSlack = 1e-9

// An Agent authorizes privacy expenditures. Implementations are safe
// for concurrent use.
type Agent interface {
	// Apply requests permission to spend epsilon of privacy budget.
	// It returns ErrBudgetExceeded (or wraps it) if the spend is not
	// permitted; on error no budget is consumed.
	Apply(epsilon float64) error
	// Rollback undoes a previously successful Apply of the same
	// epsilon. It is used internally for atomic multi-parent spends.
	Rollback(epsilon float64)
}

// RootAgent owns the total privacy budget of one protected dataset.
type RootAgent struct {
	mu      sync.Mutex
	budget  float64 // total allowance; may be +Inf
	spent   float64
	journal SpendJournal // optional; see SetJournal
}

// NewRootAgent returns an agent with the given total budget. Pass
// math.Inf(1) for an unlimited budget (useful for calibration runs).
func NewRootAgent(budget float64) *RootAgent {
	if budget < 0 || math.IsNaN(budget) {
		panic(fmt.Sprintf("core: invalid budget %v", budget))
	}
	return &RootAgent{budget: budget}
}

// SetJournal installs a spend journal: every subsequent successful
// Apply is journaled (see SpendJournal for what that promises) before
// it returns, and a journal error refuses the charge. Install journals at setup time, before the agent serves
// concurrent spends.
func (a *RootAgent) SetJournal(j SpendJournal) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = j
}

// restoreSpent force-sets the cumulative spend — the crash-recovery
// path, which replays a journal rather than re-charging through Apply.
// It bypasses both the budget check and the journal.
func (a *RootAgent) restoreSpent(spent float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = spent
}

// Apply implements Agent. When a journal is installed, the spend is
// journaled before it is applied: a journal failure refuses the
// charge, so no charge exists without its journal record.
func (a *RootAgent) Apply(epsilon float64) error {
	return a.apply(epsilon, true)
}

func (a *RootAgent) apply(epsilon float64, journaled bool) error {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return ErrInvalidEpsilon
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+epsilon > a.budget+budgetSlack {
		return fmt.Errorf("%w: requested %v, remaining %v", ErrBudgetExceeded, epsilon, a.budget-a.spent)
	}
	if journaled && a.journal != nil {
		if err := a.journal.JournalSpend(epsilon); err != nil {
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	a.spent += epsilon
	return nil
}

// Rollback implements Agent.
func (a *RootAgent) Rollback(epsilon float64) {
	a.rollback(epsilon, true)
}

func (a *RootAgent) rollback(epsilon float64, journaled bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if journaled && a.journal != nil {
		a.journal.JournalRollback(epsilon)
	}
	a.spent -= epsilon
	if a.spent < 0 {
		a.spent = 0
	}
}

// silentRoot is a view of a RootAgent whose charges bypass the spend
// journal: same budget bound, same spent accumulator, no per-charge
// journal traffic. The standing-query scheduler charges through it —
// it journals each window's charge and cursor as ONE atomic ledger
// event, so a separate per-charge journal record would double-count
// the ε on replay (and a crash between the two records could charge a
// window without advancing its cursor).
type silentRoot struct{ root *RootAgent }

func (a silentRoot) Apply(epsilon float64) error { return a.root.apply(epsilon, false) }
func (a silentRoot) Rollback(epsilon float64)    { a.root.rollback(epsilon, false) }

// Spent reports the cumulative privacy cost charged so far.
func (a *RootAgent) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining reports the unspent budget, clamped at zero: float
// accumulation error can leave spent a few ulps past budget (Apply
// tolerates budgetSlack of overshoot), and "-1.1e-16 remaining" is a
// confusing owner-facing number for an exhausted ledger.
func (a *RootAgent) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r := a.budget - a.spent; r > 0 {
		return r
	}
	return 0
}

// Budget reports the total budget the agent was created with.
func (a *RootAgent) Budget() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// scaleAgent multiplies every request by a constant factor before
// forwarding it to its parent. GroupBy installs a ×2 scale ("increases
// sensitivity by two", Table 1); bounded SelectMany installs ×k.
type scaleAgent struct {
	parent Agent
	factor float64
}

func newScaleAgent(parent Agent, factor float64) Agent {
	if factor == 1 {
		return parent
	}
	return &scaleAgent{parent: parent, factor: factor}
}

func (a *scaleAgent) Apply(epsilon float64) error {
	return a.parent.Apply(epsilon * a.factor)
}

func (a *scaleAgent) Rollback(epsilon float64) {
	a.parent.Rollback(epsilon * a.factor)
}

// dualAgent forwards requests to two parents, as required by binary
// transformations (Join, Concat, Intersect) whose output depends on two
// protected inputs. The spend is atomic: if the second parent refuses,
// the first is rolled back.
type dualAgent struct {
	left, right Agent
}

func newDualAgent(left, right Agent) Agent {
	if left == right {
		// Self-join/self-concat: a single record appears on both
		// sides, so a request must be charged twice to the shared
		// parent.
		return &scaleAgent{parent: left, factor: 2}
	}
	return &dualAgent{left: left, right: right}
}

func (a *dualAgent) Apply(epsilon float64) error {
	if err := a.left.Apply(epsilon); err != nil {
		return err
	}
	if err := a.right.Apply(epsilon); err != nil {
		a.left.Rollback(epsilon)
		return err
	}
	return nil
}

func (a *dualAgent) Rollback(epsilon float64) {
	a.left.Rollback(epsilon)
	a.right.Rollback(epsilon)
}

// partitionAgent implements the paper's Partition semantics: the cost
// charged to the source dataset is the MAXIMUM over the parts'
// cumulative costs, not their sum. Each part gets a partMember handle;
// the shared partitionAgent forwards to the parent only increases in
// the maximum.
type partitionAgent struct {
	mu      sync.Mutex
	parent  Agent
	perPart []float64
	max     float64
}

func newPartitionAgent(parent Agent, parts int) *partitionAgent {
	return &partitionAgent{parent: parent, perPart: make([]float64, parts)}
}

// member returns the agent for one part.
func (a *partitionAgent) member(i int) Agent {
	return &partMember{shared: a, index: i}
}

func (a *partitionAgent) apply(i int, epsilon float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	newSpend := a.perPart[i] + epsilon
	if newSpend > a.max {
		delta := newSpend - a.max
		if err := a.parent.Apply(delta); err != nil {
			return err
		}
		a.max = newSpend
	}
	a.perPart[i] = newSpend
	return nil
}

func (a *partitionAgent) rollback(i int, epsilon float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.perPart[i] -= epsilon
	if a.perPart[i] < 0 {
		a.perPart[i] = 0
	}
	// The maximum may have dropped; refund the difference upstream.
	newMax := 0.0
	for _, s := range a.perPart {
		if s > newMax {
			newMax = s
		}
	}
	if newMax < a.max {
		a.parent.Rollback(a.max - newMax)
		a.max = newMax
	}
}

type partMember struct {
	shared *partitionAgent
	index  int
}

func (m *partMember) Apply(epsilon float64) error {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return ErrInvalidEpsilon
	}
	return m.shared.apply(m.index, epsilon)
}

func (m *partMember) Rollback(epsilon float64) {
	m.shared.rollback(m.index, epsilon)
}
