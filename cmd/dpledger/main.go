// Command dpledger operates on a durable privacy-budget ledger
// directory (see internal/ledger and dpserver -ledger-dir):
//
//	dpledger verify  -dir /var/lib/dpserver/ledger [-q]
//	dpledger inspect -dir /var/lib/dpserver/ledger [-events] [-json]
//	dpledger compact -dir /var/lib/dpserver/ledger
//	dpledger diff    [-q] /path/to/ledgerA /path/to/ledgerB
//
// diff compares two ledger directories — typically a killed primary's
// and a promoted follower's after a failover — and exits 0 when one
// retained history is a byte-identical prefix of the other (unshared
// tail events are reported with their ε drift but are acceptable:
// un-acked appends lost with the primary, or replication lag), 1 when
// the histories hold different bytes for the same seq.
//
// verify replays the full history read-only and reports whether it is
// clean, ends in a torn (crash-truncated) tail, or is corrupt,
// distinguishing the three via its exit code so operators and CI can
// script it:
//
//	0  clean — every record replays
//	1  corrupt — a dpserver on this ledger will freeze and refuse all
//	   charges (fail closed); restore from backup or investigate
//	2  torn tail — a crash mid-append left an unfinished final record;
//	   the next dpserver open truncates it and serves normally, so
//	   restart gates should treat 2 as startable
//
// (Usage errors exit 64, EX_USAGE, so they cannot be mistaken for a
// torn tail.) -q suppresses the human-readable report, leaving just
// the exit code. inspect prints the recovered budget state as JSON
// (-events additionally dumps every WAL record as JSON lines; -json
// emits ONLY the NDJSON event stream, one object per WAL record, for
// piping into jq or a log shipper). compact opens the ledger, writes a
// fresh snapshot (holding the same newest ledger.AuditCap audit entries
// the server keeps), and deletes the WAL segments and snapshots it
// supersedes. Only run compact while no dpserver has the ledger open —
// the ledger assumes a single writer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dptrace/internal/ledger"
)

// Exit codes of the verify subcommand.
const (
	exitClean   = 0
	exitCorrupt = 1
	exitTorn    = 2
	exitUsage   = 64 // EX_USAGE; kept clear of the verify codes
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("dpledger "+cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "ledger directory")
	events := fs.Bool("events", false, "inspect: also dump every WAL event as JSON lines")
	ndjson := fs.Bool("json", false, "inspect: emit NDJSON only — one JSON object per WAL record, no state summary")
	quiet := fs.Bool("q", false, "verify: suppress the report, communicate via exit code only")
	fs.Parse(os.Args[2:])
	if cmd == "diff" {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dpledger: diff takes exactly two ledger directories")
			os.Exit(exitUsage)
		}
		diff(fs.Arg(0), fs.Arg(1), *quiet)
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dpledger: -dir is required")
		os.Exit(exitUsage)
	}

	switch cmd {
	case "verify":
		verify(*dir, *quiet)
	case "inspect":
		inspect(*dir, *events, *ndjson)
	case "compact":
		compact(*dir)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dpledger {verify|inspect|compact} -dir <ledger-dir> [-q] [-events] [-json]")
	fmt.Fprintln(os.Stderr, "       dpledger diff [-q] <dirA> <dirB>")
	os.Exit(exitUsage)
}

// diff compares two ledger directories (see ledger.Diff): exit 0 when
// one retained history is a byte-identical prefix of the other —
// unshared tail events are reported but acceptable (un-acked appends
// lost with a killed primary, or replication lag) — and exit 1 when
// the histories hold different bytes for the same seq, printing the
// first divergent seq and the per-analyst ε drift. The failover
// runbook (README) ends with this check.
func diff(dirA, dirB string, quiet bool) {
	r, err := ledger.Diff(dirA, dirB, 0)
	if err != nil {
		fatal(err)
	}
	if !r.Clean() {
		if !quiet {
			fmt.Fprintf(os.Stderr, "DIVERGED at seq %d:\n  %s: %s\n  %s: %s\n",
				r.Diverged.Seq, dirA, r.Diverged.A, dirB, r.Diverged.B)
			printDeltas(r)
		}
		os.Exit(exitCorrupt)
	}
	if !quiet {
		fmt.Printf("consistent to seq %d (A head %d, B head %d; tail only in A: %d event(s), only in B: %d)\n",
			r.Through, r.SeqA, r.SeqB, r.OnlyA, r.OnlyB)
		printDeltas(r)
	}
	os.Exit(exitClean)
}

// printDeltas reports the ε the unshared histories represent.
func printDeltas(r *ledger.DiffReport) {
	for ds, d := range r.TotalDelta {
		fmt.Printf("dataset %s: total spent delta %+.6g\n", ds, d)
	}
	for ds, per := range r.SpentDelta {
		for analyst, d := range per {
			fmt.Printf("dataset %s analyst %s: spent delta %+.6g\n", ds, analyst, d)
		}
	}
	if r.MaxSpentDelta() == 0 {
		fmt.Println("zero budget drift")
	}
}

func verify(dir string, quiet bool) {
	state, rec, err := ledger.Replay(dir, 0)
	if err != nil {
		if !quiet {
			fmt.Fprintf(os.Stderr, "dpledger: CORRUPT: %v\n", err)
			fmt.Fprintf(os.Stderr, "dpledger: replayed through seq %d before failing; a dpserver on this ledger will refuse all charges (fail closed)\n", state.Seq)
		}
		os.Exit(exitCorrupt)
	}
	if !quiet {
		fmt.Printf("ok: seq %d (snapshot %d + %d WAL events across %d segments) in %v\n",
			state.Seq, rec.SnapshotSeq, rec.Events, rec.Segments, rec.Duration)
		if rec.TornBytes > 0 {
			fmt.Printf("torn tail: %d bytes of an unfinished final record (a crash mid-append; the next dpserver open truncates it)\n", rec.TornBytes)
		}
		for _, name := range state.DatasetNames() {
			ds := state.Datasets[name]
			fmt.Printf("dataset %s (%s): total spent %.6g of %g, %d analyst(s)\n",
				name, ds.Kind, ds.TotalSpent, ledger.DecodeBudget(ds.Total), len(ds.Spent))
		}
	}
	if rec.TornBytes > 0 {
		os.Exit(exitTorn)
	}
	os.Exit(exitClean)
}

func inspect(dir string, dumpEvents, ndjson bool) {
	if ndjson {
		// Machine mode: nothing but NDJSON on stdout — one JSON object
		// per WAL record, pipeable straight into jq or a log shipper.
		line := json.NewEncoder(os.Stdout)
		if err := ledger.Events(dir, func(ev ledger.Event) error {
			return line.Encode(ev)
		}); err != nil {
			fatal(err)
		}
		return
	}
	state, _, err := ledger.Replay(dir, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpledger: warning: history corrupt after seq %d: %v\n", state.Seq, err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(state); err != nil {
		fatal(err)
	}
	if !dumpEvents {
		return
	}
	line := json.NewEncoder(os.Stdout)
	if err := ledger.Events(dir, func(ev ledger.Event) error {
		return line.Encode(ev)
	}); err != nil {
		fatal(err)
	}
}

func compact(dir string) {
	led, err := ledger.Open(ledger.Options{
		Dir: dir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer led.Close()
	if rec := led.Recovery(); rec.Err != nil {
		fmt.Fprintf(os.Stderr, "dpledger: refusing to compact corrupt history: %v\n", rec.Err)
		os.Exit(exitCorrupt)
	}
	if err := led.Snapshot(); err != nil {
		fatal(err)
	}
	fmt.Printf("compacted through seq %d\n", led.State().Seq)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpledger: %v\n", err)
	os.Exit(1)
}
