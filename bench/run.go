package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// sizes are the op counts of every section in a run of one workload.
type sizes struct {
	scan     scanSize
	spend    spendSize
	ingest   ingestSize
	mixed    mixedSize // batches == 0: the section does not run
	analyses analysesSize
}

// smokeScale is the scale below which runCtx.smoke holds.
const smokeScale = 0.1

// sizesFor is what a run of workload executes. Every run executes the
// spend, ingest and analyses sections at one size, because every run
// reports their metrics and a metric measured for a second is not
// steady enough to gate anything; the workloads differ in the inputs of
// the five query kinds:
//
//   - scan-large: 500k packets, the engine does >95 % of a query;
//   - spend-small: 20k packets, a query is 0.5-3 ms and the per-request
//     path — decode, admission, recorders, audit, WAL appends, encode —
//     is a third of the cheap kinds;
//   - mixed-live: count and hosts run beside an open-loop ingest stream
//     on one growing 250k dataset (the other three kinds, which have no
//     place in that section, on a static 100k one).
func sizesFor(rc *runCtx, workload string) sizes {
	sz := sizes{
		spend:    spendSize{warm: rc.n(500, 10), n: rc.n(4800, 48)},
		ingest:   ingestSize{seedPackets: rc.n(10_000, 500), ndjsonWarm: rc.n(100, 2), ndjson: rc.n(1000, 10), dptrWarm: rc.n(150, 2), dptr: rc.n(1500, 10)},
		analyses: analysesSize{passes: rc.n(3, 1), light: true, smoke: rc.smoke()},
	}
	switch workload {
	case wScan:
		sz.scan = scanSize{packets: rc.n(500_000, 5_000), warm: rc.n(2, 1), rounds: rc.n(30, 2)}
	case wSpend:
		sz.scan = scanSize{packets: rc.n(20_000, 1_000), warm: rc.n(20, 1), rounds: rc.n(720, 2)}
	case wMixed:
		sz.scan = scanSize{packets: rc.n(100_000, 1_000), warm: rc.n(4, 1), rounds: rc.n(96, 2), from: 2}
		sz.mixed = mixedSize{seedPackets: rc.n(250_000, 2_500), warm: rc.n(3, 1), batches: rc.n(900, 24)}
	}
	return sz
}

// result is one run of one workload.
type result struct {
	Workload  string
	Env       envStamp
	Metrics   map[string]measurement // the 16 end-to-end metrics
	Diag      map[string]measurement // tails and counters the sections report anyway
	PerLayer  map[string]measurement // traced runs only
	Attempted int
	Failed    int
	Digest    string
	Correct   bool
	Failures  []string
	Wall      time.Duration
	TracePath string
}

// runWorkload executes one run: the sections, the merge of their
// metrics, and the output checks.
func runWorkload(name string, seed uint64, scale float64, traced, recordDigests bool) (*result, error) {
	start := time.Now()
	root, fsKind, err := ledgerRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if traced {
		// A traced run does the untraced run's work at half size (half of
		// every measured loop traced), then replays and probes layers.
		scale /= 2
	}
	proc := startProcStats()
	rc := &runCtx{seed: seed, scale: scale, root: root, host: newHostMeter(), log: os.Stderr}
	res := &result{
		Workload: name, Env: newEnvStamp(fsKind, seed, scale, traced),
		Metrics: map[string]measurement{}, Diag: map[string]measurement{},
	}
	if traced {
		rc.tr = newTracer()
	}

	sz := sizesFor(rc, name)
	if traced {
		// Every analysis reports its own per-layer time, the heavy two too.
		sz.analyses = analysesSize{passes: 1, smoke: rc.smoke()}
	}
	// The parts take turns slice by slice in this order.
	scan := newScanPart(rc, sz.scan)
	spendSec, spendParts := newSpendParts(rc, sz.spend)
	ingestSec, ingestParts := newIngestParts(rc, sz.ingest)
	analysesPart := newAnalysesPart(rc, sz.analyses)
	parts := append([]part{scan}, spendParts...)
	parts = append(parts, ingestParts...)
	ordered := []*section{scan.s, spendSec, ingestSec}
	if sz.mixed.batches > 0 {
		mixed := newMixedPart(rc, sz.mixed)
		parts = append(parts, mixed)
		ordered = append(ordered, mixed.s)
	}
	parts = append(parts, analysesPart)
	ordered = append(ordered, analysesPart.s)
	if err := runParts(rc, parts); err != nil {
		return nil, err
	}

	sections := map[string]*section{}
	digest := newDigest()
	var setup time.Duration
	for _, sec := range ordered {
		sections[sec.name] = sec
		setup += sec.setup
		res.Attempted += sec.attempted
		res.Failed += sec.failed
		res.Failures = append(res.Failures, sec.failures...)
		if sec.digest != nil {
			digest.str(sec.name)
			digest.str(sec.digest.sum())
		}
		for k, v := range sec.diag {
			res.Diag[k] = v
		}
		rc.logf("%-16s setup %6.2fs measured %6.2fs ops %d failed %d",
			sec.name, sec.setup.Seconds(), sec.measured.Seconds(), sec.attempted, sec.failed)
	}
	res.Digest = digest.sum()

	// Times are reported at the reference host speed (hostspeed.go); the
	// sections keep the raw values, which the traced run reconciles its
	// layers against, and the run prints them as raw.*.
	speed := rc.host.speed()
	res.Diag["host.speed"] = measurement{Value: speed, Unit: "1", Samples: len(rc.host.reps)}
	for _, m := range endToEnd {
		v := measurement{Value: setup.Seconds(), Unit: "s", Samples: len(sections)}
		if m.Name != "setup_s" {
			from := m.sectionOn(name)
			var ok bool
			if v, ok = sections[from].metrics[m.Name]; !ok {
				return nil, fmt.Errorf("section %s reported no %s", from, m.Name)
			}
		}
		switch m.Unit {
		case "s", "ms":
			res.Diag["raw."+m.Name] = v
			v.Value *= speed
		case "records/s":
			res.Diag["raw."+m.Name] = v
			v.Value /= speed
		}
		res.Metrics[m.Name] = v
	}

	if res.Failed > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	if msg := checkDigest(name, seed, scale, res.Digest, recordDigests); msg != "" {
		res.Failures = append(res.Failures, msg)
	}
	if traced {
		if err := traceRun(rc, res, sections, proc); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Failures) == 0
	res.Wall = time.Since(start)
	return res, nil
}

// contractLine is the JSON object the driver reads from the last line
// of stdout: end-to-end metrics on an untraced run, per-layer metrics
// on a traced one.
func (r *result) contractLine() map[string]any {
	metrics := r.Metrics
	if r.Env.Traced {
		metrics = r.PerLayer
	}
	out := map[string]map[string]any{}
	for k, v := range metrics {
		out[k] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": out}
}

// print renders the run for a person: the stamp, every end-to-end
// metric by name with unit and sample count, and the checks.
func (r *result) print(w io.Writer) {
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "== %s  %s  wall %.1fs\n", r.Workload, env, r.Wall.Seconds())
	for _, m := range endToEnd {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-22s %14.4f %-10s n=%-6d %s\n", m.Name, v.Value, v.Unit, v.Samples, m.sectionOn(r.Workload))
	}
	for _, k := range sortedKeys(r.Diag) {
		v := r.Diag[k]
		fmt.Fprintf(w, "  ~ %-40s %14.4f %s\n", k, v.Value, v.Unit)
	}
	for _, k := range sortedKeys(r.PerLayer) {
		v := r.PerLayer[k]
		fmt.Fprintf(w, "  # %-40s %14.4f %s\n", k, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  operations: attempted %d failed %d; result_digest %s\n", r.Attempted, r.Failed, r.Digest)
	if r.TracePath != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TracePath)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Correct {
		fmt.Fprintln(w, "  checks: ok (budget audit, result digest, durability replay, follower diff)")
	}
}

// digestFile records the result_digest of every workload for the
// default seed and scale: the bit-identical invariant, checked on every
// run that uses them.
const digestFile = "bench/digests.json"

const defaultSeed = 1

// checkDigest compares the run's digest with the recorded one, when the
// run used the seed and scale the record was made with. It returns a
// failure message or "".
func checkDigest(workload string, seed uint64, scale float64, got string, record bool) string {
	if seed != defaultSeed || scale != 1 {
		return ""
	}
	recorded := map[string]string{}
	if b, err := os.ReadFile(digestFile); err == nil {
		if err := json.Unmarshal(b, &recorded); err != nil {
			return fmt.Sprintf("%s: %v", digestFile, err)
		}
	}
	if record {
		recorded[workload] = got
		b, _ := json.MarshalIndent(recorded, "", "  ")
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			return err.Error()
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			return err.Error()
		}
		return ""
	}
	want, ok := recorded[workload]
	if !ok {
		return fmt.Sprintf("no result_digest recorded for %s in %s (run with -record-digests)", workload, digestFile)
	}
	if want != got {
		return fmt.Sprintf("result_digest %s differs from the recorded %s: some released value, noise draw or ε-charge changed", got, want)
	}
	return ""
}
