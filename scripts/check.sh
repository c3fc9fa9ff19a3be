#!/bin/sh
# Pre-merge gate, and the one place its stages are written down: the
# Makefile's targets are one-line delegates to this script.
#
#	scripts/check.sh            run every gate stage, in order
#	scripts/check.sh STAGE...   run the named stages only
#	scripts/check.sh -l         list every stage (gate stages first)
set -eu

GO=${GO:-go}

# The gate, in order; EXTRA stages run only when named: shards and chaos
# each re-run a subset of what test and race have already run, loc counts
# code lines and lint waivers, census counts a session's lock operations,
# and report sweeps the paper report over nine seeds. No stage writes a
# tracked file.
GATE="fmt vet lint build test race fuzz bench tftbench"
EXTRA="shards chaos loc census report"

# exists PKG PATTERN...: fail unless every pattern names a test, fuzz
# target or benchmark in PKG. go test exits 0 when -run, -fuzz or -bench
# matches nothing, so a stage that names its tests checks them first, or a
# rename drops one from the gate without a word.
exists() {
	pkg=$1
	shift
	for pattern in "$@"; do
		$GO test -list "$pattern" "$pkg" </dev/null | grep -q '^\(Test\|Fuzz\|Benchmark\)' ||
			{ echo "check.sh: no test, fuzz target or benchmark matches $pattern in $pkg" >&2; exit 1; }
	done
}

stage() {
	case "$1" in
	fmt)
		unformatted=$(gofmt -l .)
		test -z "$unformatted" || { echo "gofmt needed: $unformatted" >&2; exit 1; }
		;;
	vet)
		$GO vet ./...
		;;
	lint)
		# Repo-specific static analysis, all ten analyzers: determinism
		# (simclock, seededrand, maporder), span hygiene (spanend), pool
		# discipline (poolpair), context placement (ctxfirst), the event-core
		# contracts (nogo, noblock, lockorder), and hot-path allocations
		# (hotalloc). Any unwaived finding, malformed waiver, or unused waiver
		# is printed and fails the stage.
		$GO run ./cmd/tftlint ./... >&2
		;;
	build)
		$GO build ./...
		;;
	test)
		# Not redundant with race: the allocation ceilings and memory bounds
		# skip themselves under the detector, so this is the only stage that
		# enforces them.
		$GO test ./...
		;;
	race)
		# The root package — every experiment end to end, the goldens and the
		# cross-process daemons — runs alone after the rest: under the
		# detector it outlasts go test's default ten-minute timeout.
		root=$($GO list .)
		$GO test -race $($GO list ./... | grep -vx "$root")
		$GO test -race -timeout 40m .
		;;
	fuzz)
		# Short fuzz smoke over the parser-shaped attack surfaces, all twenty
		# targets in the tree: proxy usernames (zone/session encoding),
		# certificate and certificate-chain unmarshalling (the latter also
		# holds ChainSize to what MarshalChain writes), the string decoder
		# against the byte decoder it replaced (same verdict, same error,
		# same chain, ChainSize the bytes read), handshake records (a lying
		# length costs at most one chunk past what arrived; what ReadRecord
		# accepts round-trips through WriteRecord), the exit node's handshake
		# rewrites against the blocking relay they replaced (any client and
		# server bytes, any chunk boundaries: each side receives the same
		# first record, then the rest untouched, and the tunnel ends in the
		# same error), DNS messages — the
		# tree decoder, the scan layer and its two flat readers against the
		# one-pass decoder they replaced (same verdict, same sentinel, same
		# values), the append encoders against the tree writer they replaced
		# (same bytes for a plain question, else the same verdict), and name
		# compression round trips — the HTTP request and
		# response parsers (the latter through its pooled, poisoned body
		# path), and the HTTP head parser against the line-at-a-time parser
		# it replaced and net/http (same verdict, same fields, same bytes
		# consumed), and the SMTP client's Probe against whatever a scripted
		# peer sends as the server's side (a session or an error, never a
		# panic or a hang), and the release datasets — observations written
		# by their json tags against the mirrored record types they replaced
		# (same bytes or same error, same observations read back), and any
		# bytes through the six readers (an error, or records that write out
		# and read back stably), and the span tracer's record ring against
		# the pointer ring it replaced (a script of starts, attributes,
		# errors, Ends and clock steps: the same spans, Total and Retained),
		# and the world's TLS sites and mail server answering on readiness
		# callbacks against the blocking servers they replaced,
		# tlssim.ServeOnce and smtpwire.Server.ServeOnce (any client bytes,
		# any chunk boundaries: the same bytes written at each step, the
		# close at the same step), and a fabric stream carrying shared
		# segments against the same stream with every write copied (a script
		# of copied and shared writes, CloseWrite, reads of any size,
		# TakeShared and the five faults: the same bytes, errors and EOF at
		# each step, and no shared source changed).
		# Five seconds each — a corpus regression check, not a campaign.
		# FuzzHeadEquivalence, FuzzInterceptAgreesWithRelay,
		# FuzzRingAgreesWithOracle and FuzzSharedAgreesWithCopy run without
		# input minimisation: the first's seeds include 4 KB lines and
		# 129-line blocks, the second takes three inputs, the last two
		# scripts, and minimising one of those takes the whole five seconds. A target that no longer exists
		# fails the stage: go test fuzzes nothing and exits 0 otherwise.
		while read -r pkg target flags; do
			exists "$pkg" "^$target\$"
			$GO test -run=NONE -fuzz="^$target\$" -fuzztime=5s $flags "$pkg" </dev/null
		done <<-EOF
		./internal/proxynet FuzzUsernameRoundTrip
		./internal/cert FuzzUnmarshal
		./internal/cert FuzzUnmarshalChain
		./internal/cert FuzzChainAgreesWithOracle
		./internal/tlssim FuzzReadRecord
		./internal/tlssim FuzzInterceptAgreesWithRelay -fuzzminimizetime=0
		./internal/dnswire FuzzUnmarshal
		./internal/dnswire FuzzFlatAgreesWithTree
		./internal/dnswire FuzzAppendAgreesWithTree
		./internal/dnswire FuzzNameRoundTrip
		./internal/httpwire FuzzReadResponse
		./internal/httpwire FuzzReadRequest
		./internal/httpwire FuzzHeadEquivalence -fuzzminimizetime=0
		./internal/smtpwire FuzzProbe
		./internal/dataset FuzzRecordsAgreeWithOracle
		./internal/dataset FuzzReadRelease
		./internal/trace FuzzRingAgreesWithOracle -fuzzminimizetime=0
		./internal/origin FuzzTLSSiteAgreesWithServeOnce
		./internal/origin FuzzMailServerAgreesWithServeOnce
		./internal/simnet FuzzSharedAgreesWithCopy -fuzzminimizetime=0
		EOF
		;;
	bench)
		# One iteration of the end-to-end crawl benchmarks (DNS, HTTP, TLS,
		# monitoring, SMTP, the one-worker/two-worker scaling pair) plus the
		# micro-benches of the path every one of them is made of — the simnet
		# pipe, one proxied GET of the probe page, one of the 258 KB object
		# and one CONNECT end to end over a fabric, a probe's six spans on a
		# wrapped tracer from every core, one resolver lookup against the
		# authority: a smoke test that the
		# default-scale worlds still build and crawl and the fast path still
		# runs, not a performance measurement. Every Ablation and Baseline
		# benchmark runs too (seven, ~5 s): a field kept because a benchmark
		# sets it (AlwaysFullScan, HTTPExperiment.Budget, PerASQuota,
		# ObjectSizeAblation, the CrawlConfig stop rule) is one rename from
		# dead unless that benchmark runs on every check. FullScaleDNS (~50 s,
		# ~1 GB) stays out. For a reading of the per-request path without a
		# crawl, run the last three lines with -benchtime=2s; for what a second
		# worker buys, CrawlWorkers with -benchtime=5x -count=6. A line is a
		# package and its patterns, one benchmark or family each; every
		# pattern must match, or a renamed benchmark leaves the gate.
		while read -r pkg patterns; do
			exists "$pkg" $patterns
			$GO test -run=NONE -bench="$(echo $patterns | tr ' ' '|')" -benchtime=1x -benchmem "$pkg" </dev/null
		done <<-EOF
		. DNSExperimentRun$ HTTPExperimentRun$ TLSExperimentRun$ MonitorExperimentRun$ ExtensionSMTP$ Ablation Baseline CrawlWorkers$
		./internal/simnet Pipe
		./internal/proxynet ProxiedGET$ ProxiedObject$ ProxiedCONNECT$
		./internal/trace SpanParallel$
		./internal/dnsserver Lookup$
		EOF
		;;
	tftbench)
		# The benchmark is a nested module, so none of vet, test, race or
		# TestRepositoryClean above descends into it: vet and test it here,
		# or a repository API change that breaks its compile passes the gate.
		(cd scripts/tftbench && $GO vet ./... && $GO test ./...)
		;;
	shards)
		# Small-K shard-merge smoke: per-shard sinks and aggregate Merge must
		# reproduce the unsharded tables byte-for-byte.
		exists . '^TestDNSShardSinksMergeCanonically$' '^TestDNSMergePartialsMatchUnsharded$'
		$GO test -run='TestDNSShardSinksMergeCanonically|TestDNSMergePartialsMatchUnsharded' .
		;;
	chaos)
		# Chaos soak: the fault plane, breaker, and session repinning under
		# the race detector, plus the fixed-seed end-to-end soaks (byte-identical
		# reruns, faulted probes excluded from violation rates, watchdog
		# silent).
		exists ./internal/simnet '^TestFault' '^TestInject'
		exists ./internal/proxynet '^TestHealth' '^TestBackoff' '^TestSession'
		exists . '^TestChaos'
		$GO test -race -run 'TestFault|TestInject|TestHealth|TestBackoff|TestSession' ./internal/simnet ./internal/proxynet
		$GO test -run 'TestChaos' .
		;;
	loc)
		# The two figures a simplifying change reports: the code-line count
		# (the lines of the non-test .go files of every package go list
		# names, less blank lines and // comment lines) and the number of
		# //tftlint:ignore waivers tftlint -waivers lists. Writes nothing.
		lines=$(for dir in $($GO list -f '{{.Dir}}' ./...); do
			for f in "$dir"/*.go; do
				case $f in *_test.go) ;; *) cat "$f" ;; esac
			done
		done | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')
		waivers=$($GO run ./cmd/tftlint -waivers ./... | wc -l)
		echo "$lines code lines"
		echo "$waivers tftlint waivers"
		;;
	census)
		# The lock census behind DESIGN.md §6's shared-state table, with the
		# table's arguments: how often a dns session takes each lock or does
		# each atomic write, by whose it is (every worker's, a stripe's, one
		# connection's). A -cover build of cmd/tft in a temporary directory,
		# about ten seconds; writes nothing.
		$GO run ./scripts/lockcensus -experiment dns -scale 0.0375 -seed 7 -workers 2
		;;
	report)
		# The paper-vs-measured report at nine seeds (20160413 and 1-8):
		# cmd/tft built once into a temporary directory, then
		# -experiment all -scale 0.05 -workers 1 at each seed. Prints each
		# run's wall time (its "completed in" line) and every report row
		# whose Holds column reads NO, with its seed, and fails if there is
		# one. About 80 s on a 2-core host.
		tmp=$(mktemp -d)
		trap 'rm -rf "$tmp"' EXIT
		$GO build -o "$tmp/tft" ./cmd/tft
		held=yes
		for seed in 20160413 1 2 3 4 5 6 7 8; do
			"$tmp/tft" -experiment all -scale 0.05 -workers 1 -seed "$seed" >"$tmp/out" 2>&1 ||
				{ cat "$tmp/out" >&2; echo "check.sh: tft failed at seed $seed" >&2; exit 1; }
			echo "seed $seed: $(grep '^completed in' "$tmp/out")"
			awk -v seed="$seed" '/^Report: /{r=1} r && !NF{r=0} r && $NF=="NO"{print "seed " seed " NO: " $0; no=1} END{exit no}' "$tmp/out" ||
				held=no
		done
		[ "$held" = yes ] || { echo "check.sh: a paper report row reads NO" >&2; exit 1; }
		;;
	*)
		echo "check.sh: unknown stage '$1' (have: $GATE $EXTRA)" >&2
		exit 2
		;;
	esac
}

if [ "${1:-}" = -l ]; then
	echo "$GATE $EXTRA"
	exit 0
fi
[ $# -gt 0 ] || set -- $GATE
for s in "$@"; do
	echo "== check.sh: $s" >&2
	stage "$s"
done
