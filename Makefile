GO ?= go

.PHONY: build test bench exact-diff paired check serializability loc fmt fuzz-short trace-demo crash-demo audit-demo soak-demo failover-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench is the repository's one ruler (benchmark/README.md): one
# measured run of the four pinned workloads under BENCHMARK.json.
bench:
	bash benchmark/run.sh

# exact-diff prints the benchmark's exact work counters (traced pass,
# scale 0.1) of the embedded workloads at BASE and in the working tree
# side by side, and fails if the computed result — state hash,
# instantiations, retractions, firings, final conflict-set size, tuples
# inserted/deleted — differs. CI runs it against a pull request's base.
BASE ?= HEAD~1
exact-diff:
	bash scripts/exact-diff.sh $(BASE)

# paired runs the untraced benchmark PAIRS times on BASE and on the working
# tree, alternating which goes first, and prints per-pair ratios, medians,
# quartiles, win counts and a verdict against the metric's BENCHMARK.json
# bound (better, within, worse or unresolved) for every end-to-end metric —
# the evidence a performance claim needs. It fails if any metric is worse.
PAIRS ?= 10
WORKLOAD ?= jobshop-fire
SECONDS ?= 15
SEED ?= 1
paired:
	bash scripts/paired.sh $(BASE) $(PAIRS) $(WORKLOAD) $(SECONDS) $(SEED)

# check is the extended verification: static analysis, formatting, and
# the full test suite under the race detector. staticcheck runs when
# installed (CI pins and installs it; local runs skip it gracefully).
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -race ./...

# serializability reruns the §5.2 serializability and atomicity tests
# under the race detector, 20 times each: the E6 exhaustive serial-outcome
# oracle on every matcher, the round (RunConcurrent) tests, and the
# firing-versus-commit tests. The engine's maintenance section is
# its only serialization point; these are the tests that catch a unit
# slipping past it. CI runs it after check.
serializability:
	$(GO) test -race -count=20 -run 'TestE6AllWorkloadsSerializable' ./internal/experiments
	$(GO) test -race -count=20 -run 'TestConcurrent|TestSerialFiringAtomicAgainstCommits|TestStaleFiringAppliesNothing' ./internal/engine
	$(GO) test -race -count=20 -run 'TestConcurrentAbortAccounting|TestAttachViewsDuringCommits' .

# loc prints non-test Go lines per internal/* package — the trajectory
# of ROADMAP needle 2 (less code for the same behaviour) — and two totals:
# without test files, and with them, so a log shows whether lines were
# deleted or only moved into tests. CI runs it after check so every PR
# log shows it.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d*.go | grep -v _test.go) /dev/null | wc -l)" "$$d"; \
	done; \
	printf '%6d total non-test Go lines outside benchmark/\n' \
		"$$(git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/' | xargs cat | wc -l)"; \
	printf '%6d total Go lines outside benchmark/, test files included\n' \
		"$$(git ls-files '*.go' | grep -v '^benchmark/' | xargs cat | wc -l)"

fmt:
	gofmt -w .

# fuzz-short smoke-runs every fuzz target briefly; CI uses it to keep
# the decoders, and QUEL's planner joins against their nested-loop
# oracle, honest without burning minutes.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeValue -fuzztime=$(FUZZTIME) ./internal/relation
	$(GO) test -run=^$$ -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) ./internal/relation
	$(GO) test -run=^$$ -fuzz=FuzzScanLog -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=FuzzReplicaFrame -fuzztime=$(FUZZTIME) ./internal/replica
	$(GO) test -run=^$$ -fuzz=FuzzQuelStatement -fuzztime=$(FUZZTIME) ./internal/quel

# trace-demo records a traced payroll run: the per-rule profile prints
# to stdout and the event stream lands in trace.json in Chrome
# trace_event format (open at chrome://tracing or ui.perfetto.dev).
trace-demo:
	$(GO) run ./cmd/psdb -wm=false -trace trace.json -trace-format chrome -profile testdata/payroll.ops

# audit-demo drops a seeded eligible instantiation from the Rete
# matcher's conflict set, then lets the online integrity auditor detect
# it against a from-scratch twin, repair it (a fresh matcher, the
# conflict set reconciled), and verify with a clean re-audit. Exit
# status 0 means detected-and-repaired.
audit-demo:
	$(GO) run ./cmd/psdb -matcher rete -run=false -wm=false \
		-corrupt 42 -audit -audit-repair testdata/payroll.ops

# soak-demo runs the server-mode load harness twice (docs/SERVER.md):
# an overload pass against a deliberately tiny admission window (429
# shedding must be visible) and a chaos pass that SIGKILLs the server
# mid-load, restarts it, and verifies recovery against the
# acknowledgement oracle plus a full integrity audit. Each run prints its
# JSON report; psload exits non-zero if any acknowledged commit went
# missing.
SOAK_DURATION ?= 6s
soak-demo:
	$(GO) build -o /tmp/psserve ./cmd/psserve
	$(GO) build -o /tmp/psload ./cmd/psload
	rm -f /tmp/soak.wal /tmp/soak.wal.ckpt /tmp/soak-chaos.wal /tmp/soak-chaos.wal.ckpt
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/soak.wal -addr 127.0.0.1:8372 -clients 32 \
		-duration $(SOAK_DURATION) -max-inflight 2 -max-queue 2 \
		-label overload
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/soak-chaos.wal -addr 127.0.0.1:8373 -clients 8 \
		-duration $(SOAK_DURATION) -chaos -label chaos-soak

# failover-demo runs the replication drill (docs/REPLICATION.md): a
# primary/replica pair under load, then repeated kill→promote→rejoin
# cycles with role swaps. Each cycle verifies the acknowledgement
# oracle on the promoted node, runs the audit promotion gate, fences
# every stale-epoch append from the resurrected old primary, and
# compares working memory and conflict sets byte-identical after
# rejoin. psload prints the JSON report and exits non-zero on any lost
# acked commit, fence leak, or rejoin divergence.
FAILOVER_DURATION ?= 10s
FAILOVER_CYCLES ?= 5
failover-demo:
	$(GO) build -o /tmp/psserve ./cmd/psserve
	$(GO) build -o /tmp/psload ./cmd/psload
	rm -f /tmp/failover.wal.a /tmp/failover.wal.a.ckpt \
		/tmp/failover.wal.b /tmp/failover.wal.b.ckpt
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/failover.wal -addr 127.0.0.1:8372 -replica-addr 127.0.0.1:8373 \
		-clients 8 -duration $(FAILOVER_DURATION) -chaos-failover \
		-cycles $(FAILOVER_CYCLES) -label failover

# crash-demo kills a WAL-attached run with SIGKILL mid-flight, then
# reopens the log read-only to show recovery landing on the last
# committed firing.
crash-demo:
	$(GO) build -o /tmp/psdb ./cmd/psdb
	rm -f /tmp/crashdemo.wal /tmp/crashdemo.wal.ckpt
	/tmp/psdb -wal /tmp/crashdemo.wal -checkpoint-every 64 -wm=false \
		testdata/crashloop.ops & pid=$$!; \
		sleep 1; kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
		echo "; killed psdb (pid $$pid) mid-run"
	/tmp/psdb -wal /tmp/crashdemo.wal -run=false testdata/crashloop.ops
