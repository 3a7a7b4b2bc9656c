// Offline drift auditing: compare two ledger directories event by
// event — the check a failover runbook ends with, and the assertion
// the kill-the-primary acceptance test makes. Two ledgers are
// *consistent to the refusal boundary* when one's retained history is
// a byte-identical prefix of the other's: the shorter side (typically
// a killed primary whose final appends were never acked, or a follower
// that had not caught up) differs only by a tail, never by content.
package ledger

import (
	"encoding/json"
	"fmt"
	"math"

	"dptrace/internal/vfs"
)

// DiffDivergence pinpoints the first seq where the two histories hold
// different bytes.
type DiffDivergence struct {
	Seq  uint64
	A, B json.RawMessage // the conflicting record payloads (nil = replay-only detection)
}

// DiffReport is the result of Diff. Diverged == nil means the two
// directories are consistent to the refusal boundary; OnlyA/OnlyB then
// count the unshared tail (acceptable: un-acked appends lost with a
// killed primary, or replication lag), and the deltas quantify the ε
// it represents.
type DiffReport struct {
	// From/Through is the seq range compared byte-for-byte (inclusive;
	// From > Through when the retained histories do not overlap).
	From, Through uint64
	// SeqA/SeqB are each directory's replayed head seqs.
	SeqA, SeqB uint64
	// Diverged is non-nil when the histories conflict.
	Diverged *DiffDivergence
	// OnlyA/OnlyB count events past the common prefix.
	OnlyA, OnlyB uint64
	// SpentDelta is dataset → analyst → (spent in A − spent in B),
	// nonzero entries only. TotalDelta is the per-dataset total-spend
	// difference.
	SpentDelta map[string]map[string]float64
	TotalDelta map[string]float64
}

// Clean reports whether the two histories are prefix-consistent.
func (r *DiffReport) Clean() bool { return r.Diverged == nil }

// Diff compares the ledgers in dirA and dirB: replays both, walks the
// overlapping retained seq range byte-for-byte (CRC re-verified), and
// computes per-analyst spend deltas from the folded states. It returns
// an error when either history is itself unreadable or corrupt, or when
// auditCap is not 0 (see Replay).
func Diff(dirA, dirB string, auditCap int) (*DiffReport, error) {
	stA, _, errA := Replay(dirA, auditCap)
	if errA != nil {
		return nil, fmt.Errorf("%s: %w", dirA, errA)
	}
	stB, _, errB := Replay(dirB, auditCap)
	if errB != nil {
		return nil, fmt.Errorf("%s: %w", dirB, errB)
	}
	r := &DiffReport{SeqA: stA.Seq, SeqB: stB.Seq}

	availA, err := oldestRetained(dirA, stA.Seq)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dirA, err)
	}
	availB, err := oldestRetained(dirB, stB.Seq)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dirB, err)
	}
	r.From = max64(availA, availB)
	r.Through = min64(stA.Seq, stB.Seq)

	if r.From <= r.Through {
		ta := NewTailReader(nil, dirA, r.From-1)
		tb := NewTailReader(nil, dirB, r.From-1)
		for seq := r.From; seq <= r.Through; seq++ {
			sa, pa, err := ta.Next()
			if err != nil {
				return nil, fmt.Errorf("%s at seq %d: %w", dirA, seq, err)
			}
			sb, pb, err := tb.Next()
			if err != nil {
				return nil, fmt.Errorf("%s at seq %d: %w", dirB, seq, err)
			}
			if sa != seq || sb != seq {
				return nil, fmt.Errorf("diff: reader desync at seq %d (%d vs %d)", seq, sa, sb)
			}
			if string(pa) != string(pb) {
				r.Diverged = &DiffDivergence{
					Seq: seq,
					A:   append(json.RawMessage(nil), pa...),
					B:   append(json.RawMessage(nil), pb...),
				}
				break
			}
		}
	}
	if r.SeqA > r.Through {
		r.OnlyA = r.SeqA - r.Through
	}
	if r.SeqB > r.Through {
		r.OnlyB = r.SeqB - r.Through
	}

	r.SpentDelta = make(map[string]map[string]float64)
	r.TotalDelta = make(map[string]float64)
	for _, name := range unionKeys(stA.Datasets, stB.Datasets) {
		var da, db *DatasetState
		if stA.Datasets != nil {
			da = stA.Datasets[name]
		}
		if stB.Datasets != nil {
			db = stB.Datasets[name]
		}
		if d := datasetTotal(da) - datasetTotal(db); d != 0 {
			r.TotalDelta[name] = d
		}
		analysts := map[string]struct{}{}
		if da != nil {
			for a := range da.Spent {
				analysts[a] = struct{}{}
			}
		}
		if db != nil {
			for a := range db.Spent {
				analysts[a] = struct{}{}
			}
		}
		for a := range analysts {
			d := analystSpent(da, a) - analystSpent(db, a)
			if d != 0 {
				if r.SpentDelta[name] == nil {
					r.SpentDelta[name] = make(map[string]float64)
				}
				r.SpentDelta[name][a] = d
			}
		}
	}
	return r, nil
}

// MaxSpentDelta returns the largest absolute per-analyst or total
// delta in the report — the headline drift number.
func (r *DiffReport) MaxSpentDelta() float64 {
	var m float64
	for _, v := range r.TotalDelta {
		m = math.Max(m, math.Abs(v))
	}
	for _, per := range r.SpentDelta {
		for _, v := range per {
			m = math.Max(m, math.Abs(v))
		}
	}
	return m
}

// oldestRetained is the smallest seq still readable from dir's WAL
// segments (headSeq+1 when nothing is retained, e.g. an empty dir).
func oldestRetained(dir string, headSeq uint64) (uint64, error) {
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil {
		return 0, err
	}
	for _, seg := range segs {
		// A segment can be empty (rotation happened, nothing appended
		// yet); its start is still the next retainable seq.
		if seg.start <= headSeq {
			return seg.start, nil
		}
	}
	return headSeq + 1, nil
}

func datasetTotal(ds *DatasetState) float64 {
	if ds == nil {
		return 0
	}
	return ds.TotalSpent
}

func analystSpent(ds *DatasetState, analyst string) float64 {
	if ds == nil {
		return 0
	}
	return ds.Spent[analyst]
}

func unionKeys(a, b map[string]*DatasetState) []string {
	seen := map[string]struct{}{}
	var out []string
	for k := range a {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
