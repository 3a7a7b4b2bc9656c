#!/bin/sh
# Tier-1 verification gate: everything must be gofmt-clean, build, vet
# clean, and pass the full test suite with the race detector on and
# test order shuffled (the lifecycle layer, budget policies, and
# idempotency table are exercised concurrently; shuffling catches
# test-order coupling, the timeout catches hangs).
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
# staticcheck, when installed at the pinned release (a float makes CI
# break on every new upstream check; a mismatched local version only
# warns). The offline dev container has no staticcheck and skips this
# step entirely — go vet above still runs everywhere.
STATICCHECK_VERSION="2023.1.7"
if command -v staticcheck >/dev/null 2>&1; then
	if staticcheck -version | grep -q "$STATICCHECK_VERSION"; then
		staticcheck ./...
	else
		echo "staticcheck version is not the pinned $STATICCHECK_VERSION; skipping ($(staticcheck -version))"
	fi
else
	echo "staticcheck not installed; skipping (go vet still ran)"
fi
# The spellings the benchforwards.go files keep for the frozen bench/
# directory must not regrow callers: with none, they are deleted the
# moment bench/ moves off them. The ledger's (FsyncPolicy, FsyncAlways,
# Options.Fsync) may still appear inside internal/ledger. The two
# whole-packet forwards are api.Filter.Match, which every caller hands
# a packet's address (the server filters headers with MatchHeader), and
# packetdist.PrivateLengthCDF (the server runs LengthCDF over headers).
if grep -rnE '\b(WhereRecorded|StreamNoisy[A-Za-z]*|FsyncAlways|FsyncPolicy|PrivateLengthCDF)\b|\bFsync:|\.Match\(&' --include='*.go' --exclude-dir=.bench_build . |
	grep -vE '^\./(bench/|internal/ledger/|internal/(core|dpserver/api|analyses/packetdist)/benchforwards\.go:)'; then
	echo "bench-only forwards (core.WhereRecorded, core.StreamNoisy*, ledger.FsyncPolicy, ledger.FsyncAlways, Options.Fsync, api.Filter.Match, packetdist.PrivateLengthCDF) referenced outside bench/" >&2
	exit 1
fi
# No served kind or analysis answers from a count-min estimate, which
# over-counts by every colliding key: only internal/sketch (its home)
# and the frozen bench/ may name the count-min sketch.
if grep -rnE --include='*.go' --exclude-dir=.bench_build '\bsketch\.(NewCountMin|CountMin)\b' . |
	grep -vE '_test\.go:|^\./(bench|internal/sketch)/|^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "a count-min sketch is named outside internal/sketch and bench/" >&2
	exit 1
fi
# Each served query kind is declared once, in internal/dpserver's kind
# table (kinds.go): no other non-test file of the server or of its
# client may spell a kind's name as a string literal, so a second
# hand-written list of kinds — a dispatch switch, a parameter map, a
# registry, a wrapper per kind — cannot regrow.
kinds=$(grep -oE '\{name: "[a-z]+"' internal/dpserver/kinds.go | cut -d'"' -f2 | paste -sd'|' -)
test -n "$kinds"
if grep -rnE --include='*.go' "\"($kinds)\"" internal/dpserver internal/dpclient |
	grep -vE '_test\.go:|^internal/dpserver/kinds\.go:|^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "a served query kind's name is spelled outside internal/dpserver/kinds.go's table" >&2
	exit 1
fi
# The server reads the ledger's state only through its locked accessors
# (Ledger.Dataset, Audit, Reply, Standing): State() hands out the live
# fold every append mutates, and spends and a follower's stream can run
# beside any server code, so no non-test file of internal/dpserver may
# call it.
if grep -rnE --include='*.go' '\.State\(\)' internal/dpserver |
	grep -vE '_test\.go:|^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "internal/dpserver calls the ledger's State(); read through its locked accessors" >&2
	exit 1
fi
# Every server folds its charges, audit and replies through a ledger —
# the durable one WithLedger attaches, or one over vfs.Discard that
# keeps nothing — so no non-test file of internal/dpserver may compare
# the ledger with nil: a branch on its absence would fork the one
# record of what a query did back into two server modes.
if grep -rnE --include='*.go' 'ledger[[:space:]]*[!=]=[[:space:]]*nil|nil[[:space:]]*[!=]=[[:space:]]*[A-Za-z_.]*ledger\b' internal/dpserver |
	grep -vE '_test\.go:|^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "internal/dpserver compares its ledger with nil; every server has one" >&2
	exit 1
fi
# A ledger directory has one reader (internal/ledger/disk.go): one
# listing, list, and one record scanner with one torn-tail rule, so
# recovery, compaction, Events, a primary's catch-up and dpledger diff
# agree on which history a directory holds. No other non-test function
# of internal/ledger may list the directory, and no non-test file
# outside it (the frozen bench/ aside) may spell the wal- or snap- file
# prefixes, so a second listing cannot regrow.
if awk '/^func /{fn=$0} /ReadDir\(/ && !/^[[:space:]]*\/\// && fn !~ /^func list\(/ {print FILENAME ":" FNR ":" $0}' \
	$(ls internal/ledger/*.go | grep -v '_test\.go$') | grep .; then
	echo "internal/ledger lists its directory outside list (disk.go)" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude-dir=.bench_build '\b(wal|snap)-' . |
	grep -vE '_test\.go:|^\./(internal/ledger|bench)/|^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "a ledger file prefix (wal-, snap-) is spelled outside internal/ledger; read the directory through the ledger" >&2
	exit 1
fi
# Every Test* / Fuzz* / Benchmark* the docs name must be declared in
# some test file (a trailing * names a prefix), so prose cannot keep
# pointing at a test that was renamed or deleted.
grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?' README.md DESIGN.md EXPERIMENTS.md | sort -u |
	while read -r name; do
		case $name in
		*\*) decl="^func ${name%\*}" ;;
		*) decl="^func $name\(" ;;
		esac
		if ! grep -rqE --include='*_test.go' --exclude-dir=.bench_build "$decl" .; then
			echo "the docs name $name, which no test file declares" >&2
			exit 1
		fi
	done
go test -race -shuffle=on -timeout 10m ./...
# Allocation guards for the chunk loop, the metrics registry's hit
# path and the batch decoders run without the race detector: its
# instrumentation inflates allocation counts, so these tests skip
# themselves (core, obs) or are not built (trace) under -race (see
# each package's alloc_test.go).
go test -run 'TestAlloc' -count=1 ./internal/core ./internal/obs ./internal/trace
# Short fuzz smoke over the ledger's WAL record decoder: the recovery
# path must classify arbitrary bytes without ever panicking.
go test -run=. -fuzz=FuzzLedgerDecode -fuzztime=5s ./internal/ledger
# Short fuzz smokes over the mergeable-sketch laws: arbitrary value
# and key streams, any shard split — merges must stay commutative and
# exact, rank bounds valid, estimates never undercounting.
go test -run=. -fuzz=FuzzQuantileMerge -fuzztime=5s ./internal/sketch
go test -run=. -fuzz=FuzzCountMinMerge -fuzztime=5s ./internal/sketch
# Short differential fuzz smoke over the quantile summary: any program
# of inserts and merges must leave tuple lists bit-equal to the
# reference flush/merge (quantile_ref_test.go) after every step.
go test -run=. -fuzz=FuzzQuantileMatchesReference -fuzztime=3s ./internal/sketch
# Short differential fuzz smoke over the NDJSON line codec: on arbitrary
# bytes the table-driven fast path (or its deferral) must be
# indistinguishable from encoding/json plus the one-object-per-line
# rule — same accept/reject, same records, same error strings — and a
# batch cut into 1, 2 or 3 pieces parsed concurrently must decode as
# one pass does, fast-path count included.
go test -run=. -fuzz=FuzzNDJSONLine -fuzztime=5s ./internal/trace
# Short differential fuzz smoke over ingest's decode: on arbitrary
# bytes in either wire format, keeping headers must refuse what the
# full packet parser refuses, with its error, and otherwise keep every
# header field the parser reads.
go test -run=. -fuzz=FuzzDecodeKeepsHeaders -fuzztime=3s ./internal/ingest
# Short differential fuzz smoke over the DPTR decoder: on arbitrary
# bytes, decoding the bytes as one batch and reading them through a
# reader in small pieces must return the same records or both fail,
# the batch also refusing bytes after its declared records.
go test -run=. -fuzz=FuzzDecodeDPTR -fuzztime=3s ./internal/trace
# Short differential fuzz smoke over the time-order kernel: on any keys
# (ties, sign bit, extremes) the radix permutation must equal the
# stable sort's, which is what keeps generated traces byte-identical.
go test -run=. -fuzz=FuzzTimeOrder -fuzztime=3s ./internal/trace
# Short differential fuzz smoke over the CDF bucket indexer: for any
# strictly increasing edges, the table lookup must assign every value
# the bucket the binary search does.
go test -run=. -fuzz=FuzzBucketIndex -fuzztime=3s ./internal/toolkit
# Short differential fuzz smoke over the keyed operators' key index: on
# any program of inserts and lookups (growth points, extreme and strided
# keys, any multiplier) the open-addressing table and the map path must
# number keys as a map[K]int32 does.
go test -run=FuzzKeyIndex -fuzz=FuzzKeyIndex -fuzztime=3s ./internal/core
# Short differential fuzz smoke over the rank mechanism: on any values
# (on and past both ends of the domain) and any domain of up to 64
# integers anywhere in int64, NoisyMedian's and NoisyOrderStatistic's
# run-wise draws must match the naive per-integer exponential
# mechanism's probabilities, in exactly two draws.
go test -run=FuzzDenseQuantile -fuzz=FuzzDenseQuantile -fuzztime=3s ./internal/core
# Short differential fuzz smoke over the joins: for any records, key
# skew, segment capacity and width, Join and GroupJoin must release the
# records the naive map-loop references do, in the same order.
go test -run=FuzzJoin -fuzz=FuzzJoin -fuzztime=3s ./internal/core
# Short differential fuzz smoke over GroupFold's split: for any records,
# key space, segment capacity and width, folding with an exact merge
# must release the keys, order and values of the nil merge's one range.
go test -run=FuzzGroupFold -fuzz=FuzzGroupFold -fuzztime=3s ./internal/core
# Short differential fuzz smoke over the dataset log's views: for any
# segment capacity, append batch sizes and view bounds, the chunks a
# sink receives from a view must equal, in length and content, those
# one contiguous slice of the same records hands down.
go test -run=FuzzLogView -fuzz=FuzzLogView -fuzztime=3s ./internal/core
# Short chaos smoke (make chaos runs the full 30s soak): randomized
# I/O faults + handler panics under a query storm must keep the
# failure surface closed and the ε invariants intact.
go test -race -run 'TestChaosStorm' -count=1 ./internal/dpserver -chaosdur 3s
# Failover smoke (make chaos runs the full 30s storm): kill a
# replicated primary mid-storm, promote the warm standby, and assert
# zero budget drift — every ACKed ε present exactly once on the new
# primary, idempotent replays byte-identical across the failover, and
# the two ledger directories prefix-consistent (see DESIGN.md §S35).
go test -race -run 'TestKillPrimaryFailover|TestFailoverStorm' -count=1 ./internal/dpserver -failoverdur 3s
# Load-harness smoke: a 2-second mixed-live run of the repository
# benchmark (BENCHMARK.json) — concurrent analysts and an ingest sender
# through the real HTTP stack, the spend phases in every ledger mode,
# and standing queries riding the ingest stream. Exits nonzero on any
# budget-accounting drift between client ACKs and the server's ledger
# surfaces (standing charges included), on a durability replay that
# disagrees with the live server, or on a follower whose ledger
# differs from its primary's.
go run ./bench -workload mixed-live -seconds 2 -trace 0 > /dev/null
