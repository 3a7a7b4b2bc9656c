package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// Table4Row is one discovered frequent payload string.
type Table4Row struct {
	Payload    string
	TrueCount  int
	EstCount   float64
	PercentErr float64
}

// Table4Result reproduces Table 4: the top-10 payload strings
// discovered privately, with true counts, estimated counts and
// relative error.
type Table4Result struct {
	Epsilon float64
	Rows    []Table4Row
	// CorrectTop10 is how many of the discovered top-10 match the
	// ground-truth top-10 (the paper discovers all ten, in order).
	CorrectTop10 int
	// OrderPreserved reports whether the discovered top-10 came out
	// in the true frequency order.
	OrderPreserved bool
}

// prefixLen is the string length the Table 4 search spells out; the
// generator's planted payloads are distinct at this length.
const prefixLen = 8

// payloadPrefixes derives, behind the curtain, the payloads long
// enough to spell a prefixLen-byte string.
func payloadPrefixes(q *core.Queryable[trace.Packet]) *core.Queryable[[]byte] {
	return core.Select(
		q.Where(func(p trace.Packet) bool { return len(p.Payload) >= prefixLen }),
		func(p trace.Packet) []byte { return p.Payload })
}

// plantedPrefixCounts is the ground truth of a payload search: how
// many packets the generator planted under each prefixLen-byte prefix.
func plantedPrefixCounts(h *hotspotData) map[string]int {
	trueCount := make(map[string]int)
	for _, pt := range h.truth.Payloads {
		if len(pt.Payload) >= prefixLen {
			trueCount[pt.Payload[:prefixLen]] += pt.Count
		}
	}
	return trueCount
}

// RunTable4 runs the frequent-string search over the Hotspot payloads
// and scores the top 10 against ground truth.
func RunTable4(seed uint64, epsilonPerRound float64) *Table4Result {
	h := hotspot()
	q, _ := core.NewQueryable(h.packets, math.Inf(1), noise.NewSeededSource(seed, 44))
	found, err := toolkit.FrequentStrings(payloadPrefixes(q), toolkit.FrequentStringsConfig{
		Length:          prefixLen,
		EpsilonPerRound: epsilonPerRound,
		Threshold:       120,
		MaxCandidates:   256,
	})
	if err != nil {
		panic(err)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Count > found[j].Count })
	if len(found) > 10 {
		found = found[:10]
	}

	// Ground truth by 8-byte prefix.
	trueCount := plantedPrefixCounts(h)
	type kv struct {
		s string
		n int
	}
	truthTop := make([]kv, 0, len(trueCount))
	for s, n := range trueCount {
		truthTop = append(truthTop, kv{s, n})
	}
	sort.Slice(truthTop, func(i, j int) bool {
		if truthTop[i].n != truthTop[j].n {
			return truthTop[i].n > truthTop[j].n
		}
		return truthTop[i].s < truthTop[j].s
	})
	top10 := make(map[string]bool)
	for i := 0; i < 10 && i < len(truthTop); i++ {
		top10[truthTop[i].s] = true
	}

	res := &Table4Result{Epsilon: epsilonPerRound, OrderPreserved: true}
	prev := math.MaxInt64
	for _, sc := range found {
		s := string(sc.Value)
		tc := trueCount[s]
		pe := 0.0
		if tc > 0 {
			pe = (sc.Count - float64(tc)) / float64(tc) * 100
		}
		res.Rows = append(res.Rows, Table4Row{
			Payload: s, TrueCount: tc, EstCount: sc.Count, PercentErr: pe,
		})
		if top10[s] {
			res.CorrectTop10++
		}
		if tc > prev {
			res.OrderPreserved = false
		}
		prev = tc
	}
	return res
}

// String renders the Table 4 rows.
func (r *Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — top-10 frequent payload strings (eps/round=%.1f)\n", r.Epsilon)
	fmt.Fprintf(&b, "%-12s %12s %14s %8s\n", "string", "true count", "est. count", "% err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12d %14.3f %8.3f\n",
			row.Payload, row.TrueCount, row.EstCount, row.PercentErr)
	}
	fmt.Fprintf(&b, "correct among true top-10: %d/10, order preserved: %v\n",
		r.CorrectTop10, r.OrderPreserved)
	return b.String()
}
