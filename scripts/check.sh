#!/bin/sh
# Pre-merge gate, and the one place its stages are written down: the
# Makefile's targets are one-line delegates to this script.
#
#	scripts/check.sh            run every gate stage, in order
#	scripts/check.sh STAGE...   run the named stages only
#	scripts/check.sh -l         list every stage (gate stages first)
set -eu

GO=${GO:-go}

# The gate, in order; EXTRA stages run only when named: each re-runs a
# subset of what test and race have already run. No stage writes a tracked
# file.
GATE="fmt vet lint build test race fuzz bench tftbench"
EXTRA="shards chaos"

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
		$GO test -race ./...
		;;
	fuzz)
		# Short fuzz smoke over the parser-shaped attack surfaces, all fifteen
		# targets in the tree: proxy usernames (zone/session encoding),
		# certificate and certificate-chain unmarshalling (the latter also
		# holds ChainSize to what MarshalChain writes), the string decoder
		# against the byte decoder it replaced (same verdict, same error,
		# same chain, ChainSize the bytes read), handshake records (a lying
		# length costs at most one chunk past what arrived; what ReadRecord
		# accepts round-trips through WriteRecord), DNS messages — the
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
		# and read back stably). Five seconds each — a corpus regression check,
		# not a campaign. FuzzHeadEquivalence runs without input
		# minimisation: its seeds include 4 KB lines and 129-line blocks,
		# and minimising one of those takes the whole five seconds.
		$GO test -run=NONE -fuzz=FuzzUsernameRoundTrip -fuzztime=5s ./internal/proxynet
		$GO test -run=NONE -fuzz='FuzzUnmarshal$' -fuzztime=5s ./internal/cert
		$GO test -run=NONE -fuzz='FuzzUnmarshalChain$' -fuzztime=5s ./internal/cert
		$GO test -run=NONE -fuzz='FuzzChainAgreesWithOracle$' -fuzztime=5s ./internal/cert
		$GO test -run=NONE -fuzz='FuzzReadRecord$' -fuzztime=5s ./internal/tlssim
		$GO test -run=NONE -fuzz='FuzzUnmarshal$' -fuzztime=5s ./internal/dnswire
		$GO test -run=NONE -fuzz='FuzzFlatAgreesWithTree$' -fuzztime=5s ./internal/dnswire
		$GO test -run=NONE -fuzz='FuzzAppendAgreesWithTree$' -fuzztime=5s ./internal/dnswire
		$GO test -run=NONE -fuzz='FuzzNameRoundTrip$' -fuzztime=5s ./internal/dnswire
		$GO test -run=NONE -fuzz='FuzzReadResponse$' -fuzztime=5s ./internal/httpwire
		$GO test -run=NONE -fuzz='FuzzReadRequest$' -fuzztime=5s ./internal/httpwire
		$GO test -run=NONE -fuzz='FuzzHeadEquivalence$' -fuzztime=5s -fuzzminimizetime=0 ./internal/httpwire
		$GO test -run=NONE -fuzz='FuzzProbe$' -fuzztime=5s ./internal/smtpwire
		$GO test -run=NONE -fuzz='FuzzRecordsAgreeWithOracle$' -fuzztime=5s ./internal/dataset
		$GO test -run=NONE -fuzz='FuzzReadRelease$' -fuzztime=5s ./internal/dataset
		;;
	bench)
		# One iteration of the end-to-end crawl benchmarks (DNS, HTTP, TLS,
		# monitoring, SMTP, the one-worker/two-worker scaling pair) plus the
		# micro-benches of the path every one of them is made of — the simnet
		# pipe, one proxied GET and one CONNECT end to end over a fabric, one
		# resolver lookup against the authority: a smoke test that the
		# default-scale worlds still build and crawl and the fast path still
		# runs, not a performance measurement. Every Ablation and Baseline
		# benchmark runs too (seven, ~5 s): a field kept because a benchmark
		# sets it (AlwaysFullScan, HTTPExperiment.Budget, PerASQuota,
		# ObjectSizeAblation, the CrawlConfig stop rule) is one rename from
		# dead unless that benchmark runs on every check. FullScaleDNS (~50 s,
		# ~1 GB) stays out. For a reading of the per-request path without a
		# crawl, run the last two lines with -benchtime=2s; for what a second
		# worker buys, CrawlWorkers with -benchtime=5x -count=6.
		$GO test -run=NONE -bench='(DNS|HTTP|TLS|Monitor)ExperimentRun$|ExtensionSMTP$|Ablation|Baseline|CrawlWorkers$' -benchtime=1x .
		$GO test -run=NONE -bench=Pipe -benchtime=1x -benchmem ./internal/simnet
		$GO test -run=NONE -bench='Proxied(GET|CONNECT)$' -benchtime=1x -benchmem ./internal/proxynet
		$GO test -run=NONE -bench='Lookup$' -benchtime=1x -benchmem ./internal/dnsserver
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
		$GO test -run='TestDNSShardSinksMergeCanonically|TestDNSMergePartialsMatchUnsharded' .
		;;
	chaos)
		# Chaos soak: the fault plane, breaker, and session repinning under
		# the race detector, plus the fixed-seed end-to-end soaks (byte-identical
		# reruns, faulted probes excluded from violation rates, watchdog
		# silent).
		$GO test -race -run 'TestFault|TestInject|TestHealth|TestBackoff|TestSession' ./internal/simnet ./internal/proxynet
		$GO test -run 'TestChaos' .
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
