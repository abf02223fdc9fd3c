# Developer entry points. `make check` is the pre-commit gate.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet fmt check checkers concurrent-race crash-race cluster-race serve bench bench-smoke bench-json fuzz clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector roughly 10x-es the simulator tests; -short keeps
# the slow probes out. It includes core's TestLiveMetricsDuringRun,
# which scrapes the registry while a simulation runs.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt vet build race

# Differential verification: the oracle campaign (zero divergences
# expected) and every campaign kind's teeth check through the one
# clcheck driver — the known-bad self-test and -crash-break must each
# produce a verified minimized divergence, -cluster-break must catch
# its armed recovery bug.
checkers:
	$(GO) run ./cmd/clcheck -seeds 64 -j 8
	$(GO) run ./cmd/clcheck -campaign internal/check/testdata/knownbad.json
	$(GO) run ./cmd/clcheck -crash-break -seeds 4 -j 8
	$(GO) run ./cmd/clcheck -cluster-break -seeds 4 -j 8

# The concurrent differential campaign under the race detector: racing
# submitters through the sharded mcpool engine, every shard journal
# replayed serially against the oracle.
concurrent-race:
	$(GO) test -race ./internal/mcpool/... ./internal/check/... -run Concurrent

# The crash-injection campaign under the race detector: every seed's
# program runs on the NVM persistence engine, power fails at a
# seed-derived step, and recovery is diffed bit-for-bit against a
# never-crashed oracle. The -crash-break leg arms the intentional
# recovery bug and demands it be caught (teeth check).
crash-race:
	$(GO) test -race ./internal/nvm/... ./internal/check/... -run 'Crash|Recover|Flush'
	$(GO) run -race ./cmd/clcheck -crash -seeds 200 -j 8
	$(GO) run -race ./cmd/clcheck -crash-break -seeds 20 -j 8

# The cluster chaos campaign under the race detector: multi-node
# routing and admission tests, generated programs through a live
# cluster with a mid-traffic kill/restart (five oracle layers), the
# broken-recovery teeth check, and a short clserve soak that kills a
# node, recovers it through the NVM journal path, drains, and replays
# every incarnation bit-for-bit.
cluster-race:
	$(GO) test -race ./internal/cluster/... -count=1
	$(GO) test -race ./internal/check -run Cluster -count=1
	$(GO) run -race ./cmd/clcheck -cluster -seeds 24 -j 8
	$(GO) run -race ./cmd/clcheck -cluster-break -seeds 8 -j 8
	$(GO) run -race ./cmd/clserve -nodes 2 -conns 16 -qps 1500 -duration 8s \
		-chaos -chaos-at 2s -chaos-down 1s -verify -qps-tolerance 0.05

# Run the sharded engine as a standing service with live metrics.
serve:
	$(GO) run ./cmd/clserve -conns 8 -duration 0 -addr 127.0.0.1:8091

# The full Go benchmark suite with allocation reporting (figures,
# engine micro-benchmarks, pool throughput, attack instance).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Execute the hot-path micro-benchmarks (MAC64, GF multiply and dot
# product with sparse and dense keys, one counter-mode write's cipher
# work, counter-tree increment/verify, engine read/write, pool
# throughput with and without the persistent journal, the simulator's
# EncryptionMetadata lookup, a cache miss and its fill, a miss probe of
# an L3-sized cache) for a fixed 100 iterations each: a smoke run that
# they still build, run and pass their own checks, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'MAC64|Mul|DotProduct|CounterModeWriteOp|Increment|VerifyCounter|Engine|MetaStore|PoolThroughput|PoolSubmit|LookupInsertChurn|MissInsert|CacheMissProbe' -benchtime 100x ./internal/crypto/... ./internal/cipher ./internal/ctrblock ./internal/core ./internal/mcpool ./internal/cache

# Append the next BENCH_<n>.json perf-trajectory snapshot: runs the
# pinned suite (cmd/clbench -bench-json) at full measurement windows
# and picks the first free index. Gate it against the baseline with
#   go run ./cmd/clreport -bench-compare BENCH_0.json BENCH_<n>.json
# Override the path or windows (CI smoke) with
#   make bench-json BENCH_OUT=BENCH_ci.json BENCH_FLAGS=-bench-quick
bench-json:
	@out="$(BENCH_OUT)"; \
	if [ -z "$$out" ]; then \
		i=0; while [ -e BENCH_$$i.json ]; do i=$$((i+1)); done; out=BENCH_$$i.json; \
	fi; \
	$(GO) run ./cmd/clbench -bench-json $$out $(BENCH_FLAGS)

# Native fuzzing, one target at a time (go test allows a single -fuzz
# per invocation). FUZZTIME=5m for a longer local hunt.
fuzz:
	$(GO) test ./internal/check -run '^$$' -fuzz FuzzEngineOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/check -run '^$$' -fuzz FuzzCrashPoints -fuzztime $(FUZZTIME)
	$(GO) test ./internal/check -run '^$$' -fuzz FuzzReproToken -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mcpool -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nvm -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzAPIRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzMetadataDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzEccRecovery -fuzztime $(FUZZTIME)
	$(GO) test ./internal/entropy -run '^$$' -fuzz FuzzEntropyClassifier -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cipher -run '^$$' -fuzz FuzzCipherBackends -fuzztime $(FUZZTIME)
	$(GO) test ./internal/crypto/gf -run '^$$' -fuzz FuzzClMul64 -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
