GO ?= go

.PHONY: build test test-storage bench exact-diff check loc fmt fuzz-short trace-demo crash-demo audit-demo soak-demo failover-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-storage runs the tier-1 suite once per storage backend; the
# PRODSYS_STORAGE env var sets the process-wide default backend.
test-storage:
	PRODSYS_STORAGE=row $(GO) test ./...
	PRODSYS_STORAGE=columnar $(GO) test ./...

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

# loc prints non-test Go lines per internal/* package — the trajectory
# of ROADMAP needle 2 (less code for the same behaviour). CI runs it
# after check so every PR log shows it.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d*.go | grep -v _test.go) /dev/null | wc -l)" "$$d"; \
	done; \
	printf '%6d total non-test Go lines outside benchmark/\n' \
		"$$(git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/' | xargs cat | wc -l)"

fmt:
	gofmt -w .

# fuzz-short smoke-runs every fuzz target briefly; CI uses it to keep
# the decoders honest without burning minutes.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeValue -fuzztime=$(FUZZTIME) ./internal/relation
	$(GO) test -run=^$$ -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) ./internal/relation
	$(GO) test -run=^$$ -fuzz=FuzzScanLog -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=FuzzReplicaFrame -fuzztime=$(FUZZTIME) ./internal/replica

# trace-demo records a traced payroll run: the per-rule profile prints
# to stdout and the event stream lands in trace.json in Chrome
# trace_event format (open at chrome://tracing or ui.perfetto.dev).
trace-demo:
	$(GO) run ./cmd/psbench -trace trace.json

# audit-demo injects seeded corruption into the Rete network's beta
# memories, then lets the online integrity auditor detect it, rebuild
# the derived state from working memory, and verify with a clean
# re-audit. Exit status 0 means detected-and-repaired.
audit-demo:
	$(GO) run ./cmd/psdb -matcher rete -run=false -wm=false \
		-corrupt 42 -audit -audit-repair testdata/payroll.ops

# soak-demo runs the server-mode load harness twice (docs/SERVER.md):
# an overload pass against a deliberately tiny admission window (429
# shedding must be visible) and a chaos pass that SIGKILLs the server
# mid-load, restarts it, and verifies recovery against the
# acknowledgement oracle plus a full integrity audit. Both runs append
# to BENCH_8.json; psload exits non-zero if any acknowledged commit
# went missing.
SOAK_DURATION ?= 6s
soak-demo:
	$(GO) build -o /tmp/psserve ./cmd/psserve
	$(GO) build -o /tmp/psload ./cmd/psload
	rm -f /tmp/soak.wal /tmp/soak.wal.ckpt /tmp/soak-chaos.wal /tmp/soak-chaos.wal.ckpt BENCH_8.json
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/soak.wal -addr 127.0.0.1:8372 -clients 32 \
		-duration $(SOAK_DURATION) -max-inflight 2 -max-queue 2 \
		-label overload -out BENCH_8.json
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/soak-chaos.wal -addr 127.0.0.1:8373 -clients 8 \
		-duration $(SOAK_DURATION) -chaos -label chaos-soak -out BENCH_8.json

# failover-demo runs the replication drill (docs/REPLICATION.md): a
# primary/replica pair under load, then repeated kill→promote→rejoin
# cycles with role swaps. Each cycle verifies the acknowledgement
# oracle on the promoted node, runs the audit promotion gate, fences
# every stale-epoch append from the resurrected old primary, and
# compares working memory and conflict sets byte-identical after
# rejoin. Results land in BENCH_10.json; psload exits non-zero on any
# lost acked commit, fence leak, or rejoin divergence.
FAILOVER_DURATION ?= 10s
FAILOVER_CYCLES ?= 5
failover-demo:
	$(GO) build -o /tmp/psserve ./cmd/psserve
	$(GO) build -o /tmp/psload ./cmd/psload
	rm -f /tmp/failover.wal.a /tmp/failover.wal.a.ckpt \
		/tmp/failover.wal.b /tmp/failover.wal.b.ckpt BENCH_10.json
	/tmp/psload -spawn -psserve /tmp/psserve -program testdata/server.ops \
		-wal /tmp/failover.wal -addr 127.0.0.1:8372 -replica-addr 127.0.0.1:8373 \
		-clients 8 -duration $(FAILOVER_DURATION) -chaos-failover \
		-cycles $(FAILOVER_CYCLES) -label failover -out BENCH_10.json

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
