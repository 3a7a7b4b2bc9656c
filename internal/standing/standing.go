// Package standing is the continual-monitoring subsystem: a registry
// and scheduler for standing queries attached to a dataset's ingest
// stream. A registration names a query kind, a window specification, a
// per-window ε, and a total standing budget reservation; the scheduler
// fires each window exactly when the dataset's record watermark (or,
// for wall-clock windows, the batch-apply clock) crosses the window's
// close boundary, runs the query through a caller-supplied Fire
// callback, and appends the result to a bounded per-query ring that
// long-polling readers wait on.
//
// Determinism is the design center. Window boundaries are defined in
// record-sequence terms against the dataset's monotonic watermark, so
// the same record sequence produces the same windows regardless of how
// ingest batches chunk it; firing is serialized (the ingest apply,
// one batch at a time, drives Stage) and ordered by (registration order, window
// index), so noise draws happen in a reproducible order; wall-clock
// specs resolve to sequence watermarks at batch-apply time and the
// resolved boundaries are journaled, so replay never re-reads a clock.
//
// Budget discipline ("the drip"): every window costs exactly the
// registered per-window ε, charged through the dataset's analyst
// policy by the Fire callback; the registry additionally enforces the
// query's total reservation — a window that would overdraw it is
// refused with outcome "exhausted" at zero charge and the query stops
// firing. Durability is the caller's job, in two steps: the Fire
// callback journals the window (Stage then moves the cursor and holds
// the result back), and once the caller has made those journal records
// durable it calls Publish, which is what makes the results visible to
// readers. Advance does both at once for callers with nothing to wait
// for.
package standing

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a standing query's lifecycle state.
type Status string

const (
	// StatusActive queries fire windows as the watermark advances.
	StatusActive Status = "active"
	// StatusExhausted queries hit their reservation (or their
	// analyst's budget): registered, inspectable, no longer firing.
	StatusExhausted Status = "exhausted"
	// StatusCanceled queries were canceled by the owner: cursor
	// stopped, result ring still readable.
	StatusCanceled Status = "canceled"
)

// Spec is one standing query's immutable registration contract.
type Spec struct {
	Dataset string
	Analyst string
	ID      string
	// Kind is the query kind (from the /v1 kind registry) each window
	// executes.
	Kind string
	// Epsilon is the per-window budget drip: every fired window
	// charges exactly this much through the analyst policy.
	Epsilon float64
	// Reservation is the total standing budget: the sum of window
	// charges never exceeds it (refusal via an "exhausted" window).
	Reservation float64
	// Width and Stride define a record-sequence window: window i
	// covers records [Base+i·Stride, Base+i·Stride+Width) and closes
	// when the watermark reaches its end. Stride == Width is a
	// tumbling window; Stride < Width slides with overlap (each window
	// still pays the full Epsilon — overlapping releases compose).
	Width  uint64
	Stride uint64
	// EveryMs, exclusive with Width, is a wall-clock tumbling window:
	// evaluated only at batch apply, a window closes at the first
	// apply at least EveryMs after the previous close and covers
	// [previous close watermark, current watermark). The resolved
	// boundaries are journaled, so replay is sequence-deterministic.
	EveryMs int64
	// Base is the dataset watermark at registration: records already
	// present before the registration are never windowed.
	Base uint64
	// Request is the full registration request (wire JSON), carried so
	// a restart can rebuild the query.
	Request []byte
	// Params is the caller's decoded form of Request, made once when
	// the query is registered or restored, so that firing a window never
	// decodes the request again. The registry does not read it.
	Params any
}

// Window identifies one due window: its index and its record-sequence
// bounds [Start, End) on the dataset watermark.
type Window struct {
	Index uint64
	Start uint64
	End   uint64
}

// Result is one fired window's committed outcome.
type Result struct {
	Window  Window
	Outcome string // "ok", "exhausted", or "error"
	Charged float64
	// Exhausts marks the query's transition to StatusExhausted after
	// this window (reservation overdraw or analyst-budget refusal).
	Exhausts bool
	// Body is the marshaled wire result appended to the ring and
	// replayed byte-identically to pollers (including across restarts,
	// via the journal).
	Body []byte
	// Time is the fire wall time in Unix nanoseconds.
	Time int64
	// Note is the Fire callback's own data about this window, handed
	// back untouched to Publish's callback (the server keeps the
	// window's wide event here until the result is durable). The
	// registry never reads it; restored results carry none.
	Note any
}

// Fire executes one due window. It must (in order) run the query,
// journal the outcome, and only then return ok=true with the result.
// Returning ok=false aborts the advance without moving the cursor —
// the window stays due and retries on the next advance (the
// fail-closed path while the ledger refuses appends, and the
// journal-failure path after rolling back the in-memory charge).
type Fire func(q *Query, w Window) (Result, bool)

// Outcome values for Result.Outcome (and the wire/journal records).
const (
	OutcomeOK        = "ok"
	OutcomeExhausted = "exhausted"
	OutcomeError     = "error"
)

// Config configures a Registry.
type Config struct {
	// Fire executes and journals one due window (required).
	Fire Fire
	// Now is the scheduler clock for wall-clock windows and fire
	// latency stats; nil takes time.Now.
	Now func() time.Time
}

// RingCap bounds each query's result ring. The journal fold keeps the
// same number of recent windows (ledger state.go), so a restart
// restores the identical ring.
const RingCap = 64

// maxPerDataset bounds registrations per dataset; canceled and
// exhausted queries count — they still hold state.
const maxPerDataset = 256

// Registration errors.
var (
	// ErrDuplicateID is returned when a registration names an ID
	// already present on the dataset (including canceled or exhausted
	// queries — IDs are never reused; their history persists).
	ErrDuplicateID = errors.New("standing: id already registered")
	// ErrTooMany is returned when a dataset is at its registration cap.
	ErrTooMany = errors.New("standing: too many standing queries on dataset")
	// ErrNotFound is returned for lookups of unknown (dataset, id).
	ErrNotFound = errors.New("standing: no such standing query")
)

// Validate checks a spec's windowing and budget contract. It does not
// check Kind (the caller owns the kind registry) or ID syntax (see
// ValidID; minted IDs skip it).
func Validate(s *Spec) error {
	switch {
	case s.Dataset == "":
		return errors.New("standing: dataset is required")
	case s.Analyst == "":
		return errors.New("standing: analyst is required")
	case s.Kind == "":
		return errors.New("standing: query kind is required")
	case !(s.Epsilon > 0) || s.Epsilon > 1e9:
		return errors.New("standing: epsilon must be positive and finite")
	case !(s.Reservation >= s.Epsilon) || s.Reservation > 1e12:
		return errors.New("standing: reservation must be finite and at least one window's epsilon")
	case s.Width == 0 && s.EveryMs == 0:
		return errors.New("standing: window needs width (records) or everyMs (wall clock)")
	case s.Width > 0 && s.EveryMs > 0:
		return errors.New("standing: width and everyMs are mutually exclusive")
	case s.EveryMs < 0:
		return errors.New("standing: everyMs must be positive")
	case s.Stride > 0 && s.Width == 0:
		return errors.New("standing: stride requires a record-width window")
	}
	return nil
}

// ValidID reports whether a client-supplied ID is acceptable: 1–64
// characters from [A-Za-z0-9._-].
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// stride is the effective stride: Stride, defaulting to Width
// (tumbling) when zero.
func (s *Spec) stride() uint64 {
	if s.Stride > 0 {
		return s.Stride
	}
	return s.Width
}

// Query is one registered standing query. Spec is immutable; the
// mutable schedule state (cursor, spend, status, ring) is guarded by
// the owning registry's lock and read through the accessor methods.
type Query struct {
	Spec Spec

	reg *Registry

	next     uint64 // next window index to fire
	lastMark uint64 // end watermark of the last fired window
	lastFire time.Time
	spent    float64
	status   Status
	results  []Result
	// published is the poll cursor: one past the newest window whose
	// result is in the ring. It trails next while fired windows wait
	// for their journal records to become durable.
	published uint64
	// updated is closed and replaced whenever the query's observable
	// state changes (a window's publication or a cancel) — the
	// long-poll wake signal.
	updated chan struct{}
}

// Restored is a query's recovered schedule state (see
// Registry.Restore).
type Restored struct {
	NextWindow uint64
	LastMark   uint64
	LastFire   time.Time
	Spent      float64
	Status     Status
	Results    []Result
}

// Snapshot is a point-in-time view of a query's schedule state.
type Snapshot struct {
	Spec       Spec
	NextWindow uint64
	LastMark   uint64
	Spent      float64
	Status     Status
	Windows    int // results currently held in the ring
}

// Spent returns the cumulative standing ε charged by fired windows.
func (q *Query) Spent() float64 {
	q.reg.mu.Lock()
	defer q.reg.mu.Unlock()
	return q.spent
}

// Status returns the query's lifecycle state.
func (q *Query) Status() Status {
	q.reg.mu.Lock()
	defer q.reg.mu.Unlock()
	return q.status
}

// Snapshot returns the query's current schedule state.
func (q *Query) Snapshot() Snapshot {
	q.reg.mu.Lock()
	defer q.reg.mu.Unlock()
	return Snapshot{
		Spec: q.Spec, NextWindow: q.next, LastMark: q.lastMark,
		Spent: q.spent, Status: q.status, Windows: len(q.results),
	}
}

// ResultsAfter returns the ring's results with window index >= after
// (oldest first), the query's status, the poll cursor (one past the
// newest published window — fired windows still waiting for their
// commit are not counted), and a channel closed on the next state
// change — the long-poll contract: if the slice is empty, wait on the
// channel and re-read.
func (q *Query) ResultsAfter(after uint64) ([]Result, Status, uint64, <-chan struct{}) {
	q.reg.mu.Lock()
	defer q.reg.mu.Unlock()
	var out []Result
	for _, res := range q.results {
		if res.Window.Index >= after {
			out = append(out, res)
		}
	}
	return out, q.status, q.published, q.updated
}

// due reports the next due window under the registry lock. mark is the
// dataset watermark; now the batch-apply clock.
func (q *Query) due(mark uint64, now time.Time) (Window, bool) {
	if q.status != StatusActive {
		return Window{}, false
	}
	if q.Spec.Width > 0 {
		start := q.Spec.Base + q.next*q.Spec.stride()
		end := start + q.Spec.Width
		if mark < end {
			return Window{}, false
		}
		return Window{Index: q.next, Start: start, End: end}, true
	}
	// Wall-clock tumbling: resolved against the watermark at apply
	// time; an interval with no applies fires (once) at the next one.
	if now.Sub(q.lastFire) < time.Duration(q.Spec.EveryMs)*time.Millisecond {
		return Window{}, false
	}
	return Window{Index: q.next, Start: q.lastMark, End: mark}, true
}

// Registry owns every standing query and drives their schedules.
type Registry struct {
	cfg Config

	// advanceMu serializes Advance calls: window firing must be
	// totally ordered for noise-draw determinism. In the server only
	// the ingest apply advances, under its own mutex, so this is
	// insurance.
	advanceMu sync.Mutex

	mu       sync.Mutex
	datasets map[string]*dsEntry
	// pending holds fired windows whose results are not yet published,
	// in firing order; staged counts every window ever staged, so
	// pending[i] is staged window number staged-len(pending)+i+1.
	pending []pendingResult
	staged  uint64

	// Fire latency reservoir + lifetime counters for Stats.
	fireNS   []int64
	fireNext int
	windows  uint64
	epsilon  float64
}

type pendingResult struct {
	q   *Query
	res Result
}

type dsEntry struct {
	order  []*Query // registration order — the deterministic firing order
	byID   map[string]*Query
	minted uint64
}

// NewRegistry builds a registry; cfg.Fire is required.
func NewRegistry(cfg Config) *Registry {
	if cfg.Fire == nil {
		panic("standing: Config.Fire is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{cfg: cfg, datasets: make(map[string]*dsEntry)}
}

func (r *Registry) entry(dataset string) *dsEntry {
	ds := r.datasets[dataset]
	if ds == nil {
		ds = &dsEntry{byID: make(map[string]*Query)}
		r.datasets[dataset] = ds
	}
	return ds
}

// Register admits one standing query: it validates the spec, mints an
// ID when the spec carries none, runs journal (durability first — an
// error refuses the registration), and commits. The journal callback
// runs under the registry lock so the (mint, journal, commit) triple
// is atomic against concurrent registrations.
func (r *Registry) Register(spec Spec, journal func(Spec) error) (*Query, error) {
	if err := Validate(&spec); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.entry(spec.Dataset)
	if len(ds.order) >= maxPerDataset {
		return nil, fmt.Errorf("%w: cap %d", ErrTooMany, maxPerDataset)
	}
	if spec.ID == "" {
		for {
			ds.minted++
			id := fmt.Sprintf("sq-%d", ds.minted)
			if _, taken := ds.byID[id]; !taken {
				spec.ID = id
				break
			}
		}
	} else {
		if !ValidID(spec.ID) {
			return nil, errors.New("standing: id must be 1-64 chars of [A-Za-z0-9._-]")
		}
		if _, taken := ds.byID[spec.ID]; taken {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateID, spec.ID)
		}
	}
	if journal != nil {
		if err := journal(spec); err != nil {
			return nil, err
		}
	}
	q := &Query{
		Spec: spec, reg: r, lastMark: spec.Base,
		lastFire: r.cfg.Now(), status: StatusActive,
		updated: make(chan struct{}),
	}
	ds.order = append(ds.order, q)
	ds.byID[spec.ID] = q
	return q, nil
}

// Restore re-installs one recovered query in registration order (the
// caller sorts by journal sequence). It bypasses journaling — the
// journal is where the state came from.
func (r *Registry) Restore(spec Spec, st Restored) (*Query, error) {
	if err := Validate(&spec); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.entry(spec.Dataset)
	if _, taken := ds.byID[spec.ID]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, spec.ID)
	}
	if st.Status == "" {
		st.Status = StatusActive
	}
	lastFire := st.LastFire
	if lastFire.IsZero() {
		lastFire = r.cfg.Now()
	}
	results := st.Results
	if n := len(results) - RingCap; n > 0 {
		results = results[n:]
	}
	q := &Query{
		Spec: spec, reg: r,
		next: st.NextWindow, lastMark: st.LastMark, lastFire: lastFire,
		spent: st.Spent, status: st.Status,
		results: results, published: st.NextWindow,
		updated: make(chan struct{}),
	}
	ds.order = append(ds.order, q)
	ds.byID[spec.ID] = q
	return q, nil
}

// Get looks up one query.
func (r *Registry) Get(dataset, id string) (*Query, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.datasets[dataset]
	if ds == nil {
		return nil, false
	}
	q, ok := ds.byID[id]
	return q, ok
}

// List returns a dataset's queries in registration order.
func (r *Registry) List(dataset string) []*Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.datasets[dataset]
	if ds == nil {
		return nil
	}
	return append([]*Query(nil), ds.order...)
}

// Cancel stops one query. journal runs under the registry lock before
// the commit (an error leaves the query untouched); canceling an
// already-stopped query is a journal-free no-op. The returned bool
// reports whether this call performed the transition.
func (r *Registry) Cancel(dataset, id string, journal func(Spec) error) (*Query, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.datasets[dataset]
	if ds == nil {
		return nil, false, ErrNotFound
	}
	q, ok := ds.byID[id]
	if !ok {
		return nil, false, ErrNotFound
	}
	if q.status == StatusCanceled {
		return q, false, nil
	}
	if journal != nil {
		if err := journal(q.Spec); err != nil {
			return nil, false, err
		}
	}
	q.status = StatusCanceled
	q.wakeLocked()
	return q, true, nil
}

// Advance fires every window that became due when the dataset's
// watermark reached mark and publishes the results at once: Stage plus
// Publish, for callers whose Fire leaves nothing to wait for.
func (r *Registry) Advance(dataset string, mark uint64) {
	r.Stage(dataset, mark)
	r.Publish(r.Staged(), nil)
}

// Stage fires every window that became due when the dataset's
// watermark reached mark, in deterministic order: queries in
// registration order, each query's windows in index order. It is the
// stream-side hook — the ingest apply calls it after each batch —
// and is serialized so concurrent callers cannot interleave
// noise draws. Each fired window moves its query's cursor and spend at
// once (the next window is computed from them), but its result is held
// back until Publish.
func (r *Registry) Stage(dataset string, mark uint64) {
	r.advanceMu.Lock()
	defer r.advanceMu.Unlock()
	r.mu.Lock()
	ds := r.datasets[dataset]
	if ds == nil || len(ds.order) == 0 {
		r.mu.Unlock()
		return
	}
	queries := append([]*Query(nil), ds.order...)
	r.mu.Unlock()
	for _, q := range queries {
		for {
			r.mu.Lock()
			w, ok := q.due(mark, r.cfg.Now())
			r.mu.Unlock()
			if !ok {
				break
			}
			t0 := r.cfg.Now()
			res, journaled := r.cfg.Fire(q, w)
			if !journaled {
				// Fail closed: the window could not be journaled (ledger
				// refusing). Nothing moved; it stays due for a healthier
				// advance, and nothing later may fire before it.
				return
			}
			r.stage(q, w, res, r.cfg.Now().Sub(t0))
		}
	}
}

// stage applies one journaled window to the query's schedule — cursor,
// spend, status, stats — and queues its result for Publish.
func (r *Registry) stage(q *Query, w Window, res Result, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.Window = w
	q.next = w.Index + 1
	q.lastMark = w.End
	q.lastFire = r.cfg.Now()
	q.spent += res.Charged
	if res.Exhausts {
		q.status = StatusExhausted
	}
	r.pending = append(r.pending, pendingResult{q, res})
	r.staged++

	r.windows++
	r.epsilon += res.Charged
	const reservoir = 4096
	if len(r.fireNS) < reservoir {
		r.fireNS = append(r.fireNS, int64(dur))
	} else {
		r.fireNS[r.fireNext%reservoir] = int64(dur)
	}
	r.fireNext++
}

// Staged returns how many windows have been staged so far. Read it
// before starting the commit that makes their journal records durable,
// and pass it to Publish afterwards: every window counted was journaled
// before the commit began.
func (r *Registry) Staged() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staged
}

// Publish releases the results of the first upTo staged windows (see
// Staged) that are still held back, in firing order: each is appended
// to its query's ring, moves the poll cursor and wakes long-pollers.
// each, when set, is then called for every result published by this
// call, outside the registry lock. Windows staged after upTo was read
// stay pending for a later Publish; each result is published once.
func (r *Registry) Publish(upTo uint64, each func(Result)) {
	r.mu.Lock()
	first := r.staged - uint64(len(r.pending)) // windows already published
	if upTo <= first {
		r.mu.Unlock()
		return
	}
	n := len(r.pending)
	if upTo < r.staged {
		n = int(upTo - first)
	}
	out := append([]pendingResult(nil), r.pending[:n]...)
	r.pending = append(r.pending[:0], r.pending[n:]...)
	for _, p := range out {
		q := p.q
		if len(q.results) >= RingCap {
			copy(q.results, q.results[1:])
			q.results = q.results[:len(q.results)-1]
		}
		kept := p.res
		kept.Note = nil // the callback below gets it; the ring need not hold it
		q.results = append(q.results, kept)
		q.published = p.res.Window.Index + 1
		q.wakeLocked()
	}
	r.mu.Unlock()
	if each != nil {
		for _, p := range out {
			each(p.res)
		}
	}
}

func (q *Query) wakeLocked() {
	close(q.updated)
	q.updated = make(chan struct{})
}

// Active counts queries currently in StatusActive across all datasets.
func (r *Registry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ds := range r.datasets {
		for _, q := range ds.order {
			if q.status == StatusActive {
				n++
			}
		}
	}
	return n
}

// Stats summarizes the registry's lifetime window activity.
type Stats struct {
	Queries int // registrations currently held (any status)
	Active  int
	Windows uint64  // windows fired (all outcomes)
	Epsilon float64 // total ε charged by fired windows
	// Fire latency over the recent reservoir (up to 4096 windows).
	FireP50, FireP99, FireMean time.Duration
}

// Stats returns a snapshot of the registry's counters and fire-latency
// percentiles.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Windows: r.windows, Epsilon: r.epsilon}
	for _, ds := range r.datasets {
		st.Queries += len(ds.order)
		for _, q := range ds.order {
			if q.status == StatusActive {
				st.Active++
			}
		}
	}
	if n := len(r.fireNS); n > 0 {
		sorted := append([]int64(nil), r.fireNS...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum int64
		for _, v := range sorted {
			sum += v
		}
		st.FireP50 = time.Duration(sorted[n/2])
		st.FireP99 = time.Duration(sorted[(n*99)/100])
		st.FireMean = time.Duration(sum / int64(n))
	}
	return st
}
