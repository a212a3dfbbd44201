GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck release; CI installs exactly this, local runs use
# whatever `staticcheck` is on PATH (and skip cleanly when there is none).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race vet orphans staticcheck crosscheck portable sweepbodies convbench fuzz oracle alloccheck chaos treechaos chaossmoke byzantine byzsmoke benchmark benchcheck benchpair wirecheck quickcheck check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# orphans fails on an exported identifier under internal/ that no non-test
# code references (orphans_test.go, stdlib go/parser only, well under a
# second); a deliberate exception goes on that file's allow-list with its
# reason.
orphans:
	$(GO) test -count=1 -run '^TestNoOrphans$$' .

# staticcheck runs when the binary is on PATH and skips (successfully)
# when it is not, so `make check` works in hermetic containers; CI
# installs the pinned $(STATICCHECK_VERSION) so the gate is enforced
# there (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# crosscheck compiles and vets the arm64 build without needing arm64
# hardware: the NEON micro-kernels (kernel_arm64.s) only assemble under
# GOARCH=arm64, so an amd64-only CI pass would let them rot. It does the
# same for big-endian s390x, the only build of the wire codec's byte-swap
# file (internal/fl/wire/endian_be.go); nothing runs it.
crosscheck:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/fl/wire

# portable runs the tensor and nn tests on the 386 build, natively on an
# amd64 host. That build has no assembly (kernel_other.go,
# edge_other.go), so it exercises the portable Go loops behind every
# micro-kernel and GEMM edge routine, which an AVX2 host never executes.
# About 15 s.
portable:
	GOARCH=386 $(GO) test -count=1 ./internal/tensor ./internal/nn

# sweepbodies runs both tiers' sweep definition tests, one subtest per
# body, and the dispatch rule's test, and prints the line each body's
# subtest ended on (PASS, or SKIP with the reason) and the body this host
# runs: a runner without AVX-512 skips that body's test, and the output
# says so. A few seconds.
sweepbodies:
	@out=$$($(GO) test -count=1 -v -run 'TestSweep(32)?MatchesDefinition|TestDecodeCPU' ./internal/tensor); status=$$?; \
	echo "$$out" | grep -E -e '--- (PASS|SKIP|FAIL)' -e '_test.go:[0-9]+: (no |this host)'; \
	[ $$status -eq 0 ] || { echo "$$out"; echo "sweepbodies: the sweep tests failed"; exit 1; }

# convbench runs one iteration of every case of the convolution layer's
# benchmark (forward, Step II and Step I backward at the VGG and sweep
# shapes), of the 2×2 max-pool's, of the nine per-image f64 GEMMs of the
# VGG convolutions, and of the f32 tier's GEMM benchmarks (MatMul256 and
# the MLP's weight gradient and first-layer forward under F32), about a
# second in all, so the benchmarks cannot rot.
convbench:
	$(GO) test -count=1 -run '^$$' -bench '^(BenchmarkConvLayer|BenchmarkMaxPool2D|BenchmarkGEMMConvF64|BenchmarkMatMul256F32|BenchmarkWeightGradF32|BenchmarkDenseForwardF32)$$' -benchtime 1x ./internal/nn ./internal/tensor

# The race detector slows the heavyweight experiment replays ~10-20x past
# the default go-test timeout; they honor -short and are covered without
# race by `make test`. Every concurrency path (fl, transport, chaos tests)
# still runs under race here.
race:
	$(GO) test -race -short -timeout 20m ./...

# oracle runs the differential oracle between the two round engines — the
# flat TCP federation against the in-process server, every rule, window,
# compression, sampling, failure, kill→resume and tree row, bit for bit —
# and the round core's exchange-window test, five times under the race
# detector, so a bug that only shows under some goroutine schedule
# surfaces before merge. About 15 s.
oracle:
	$(GO) test -race -count=5 -run 'TestFlatTCPMatchesInProcess|TestRunWindow' ./internal/fl/...

# alloccheck runs the steady-state allocation bounds and the buffer
# ownership tests ten times each, so a buffer first allocated in a late
# round (a rare window depth, a miss in the client idle list) fails here
# before merge rather than in one CI run of several. About a minute.
alloccheck:
	$(GO) test -count=10 -run 'SteadyStateAllocation|SlotPool|Poisoned|IdleSessions' ./internal/fl/...

# chaos runs the crash-injection harness under the race detector: kill the
# federation mid-run (in-process and over TCP), restart from the durable
# snapshot, and require bit-identical results — plus the torn-write /
# bit-flip fallback and graceful-shutdown paths.
chaos: treechaos
	$(GO) test -race -count=1 \
		-run 'CrashResume|StopResume|CoordinatorRestart|ClientStops|Manager|WriteFileAtomic' \
		./internal/fl/checkpoint ./internal/fl/transport ./internal/fl/faults

# treechaos runs the depth-3 aggregation-tree chaos harness under the race
# detector: seeded leaf and interior kills (failure-domain restarts), a
# partition in front of the first replacement, mid-partial-frame link
# kills, parent failover, and bit-identical root kill→restart→resume.
treechaos:
	$(GO) test -race -count=1 -timeout 10m \
		-run 'TestTreeChaos|TestMidPartialFrame|TestLeafFailsOver|TestTreeRootRestart|TestDegradedPartial|TestCoverageFloor' \
		./internal/fl/transport ./internal/fl/faults

# chaossmoke is the fast no-race subset of the chaos harness that rides in
# `make check`: one in-process crash/resume bit-identity pass plus the
# snapshot fallback tests.
chaossmoke:
	$(GO) test -count=1 \
		-run 'CrashResumeBitIdenticalInProcess|ManagerTornWrite|ManagerFallsBack' \
		./internal/fl/checkpoint

# byzantine runs the adversarial chaos suite under the race detector:
# sign-flip / scaled-gradient / collusion injectors, convergence within ε
# of the attack-free baseline with f < n/3 under the robust folds
# (in-process and over TCP), reputation-driven quarantine, and quarantine
# surviving coordinator kill→restart→resume.
byzantine:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'Byzantine|Quarantine|Dropout|Residual|RetryJitter' \
		./internal/fl ./internal/fl/transport
	$(GO) test -race -count=1 ./internal/fl/robust ./internal/fl/faults

# byzsmoke is the fast race-enabled subset that rides in `make check`: the
# TCP quarantine + restart-no-amnesty path (cheap deterministic clients)
# plus the reputation state machine and injector arithmetic. It also runs
# one iteration of the robust rules' benchmark at the model's size, so the
# benchmark cannot rot.
byzsmoke:
	$(GO) test -race -count=1 -run 'TCPByzantine|RetryJitter' ./internal/fl/transport
	$(GO) test -race -count=1 ./internal/fl/robust ./internal/fl/faults
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkRobustAggregate$$' -benchtime 1x ./internal/fl/robust

# Short fuzz bursts over the two decoders that parse untrusted bytes: the
# coordinator's byte-budgeted update decode (the path hostile clients
# reach over the wire) and the checkpoint container decode (the path a
# resuming process walks over whatever a crash left on disk), plus the
# robust aggregators (which must never panic or emit non-finite
# aggregates, whatever a hostile cohort sends, and whose Median and
# TrimmedMean must equal their sort-based definitions bit for bit, Report
# included) and the radix top-k
# selection against its sort-based definition. Each -fuzz pattern is
# anchored: go test refuses a pattern that matches two targets, and
# FuzzDecodePartial is a prefix of FuzzDecodePartialStream. Raise FUZZTIME
# for a real campaign: make fuzz FUZZTIME=10m
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeUpdate$$' -fuzztime=$(FUZZTIME) ./internal/fl/transport
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/fl/checkpoint
	$(GO) test -run='^$$' -fuzz='^FuzzRobustAggregate$$' -fuzztime=$(FUZZTIME) ./internal/fl/robust
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecompressUpdate$$' -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePartial$$' -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeUpdateStream$$' -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePartialStream$$' -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzNarrowWidenValidate$$' -fuzztime=$(FUZZTIME) ./internal/fl
	$(GO) test -run='^$$' -fuzz='^FuzzTopKSelect$$' -fuzztime=$(FUZZTIME) ./internal/fl/compress

# benchmark runs the repository benchmark (BENCHMARK.json): every
# workload untraced then traced, each in a fresh subprocess; see
# benchmark/README.md. It is the repository's only performance harness.
benchmark:
	$(GO) run ./benchmark

# benchcheck proves the repository benchmark runs before a change is
# judged by it: vet and the package's own smoke test, then every workload
# of BENCHMARK.json twice, invoked as the judging pipeline invokes it (2 s
# of fixed work; ~10 s each) — tracing off, then tracing on, because the
# traced run is the only one that calls the replayed layer entry points
# (wire.Decode*/Append*Frame, fl.Densify, fl.NewFold, compress.Bank,
# robust.NewSketch) directly. Every run must exit 0 and end in a result
# line with "correct":true.
benchcheck:
	$(GO) vet ./benchmark
	$(GO) test -count=1 ./benchmark
	@workloads=$$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json); \
	[ -n "$$workloads" ] || { echo "benchcheck: no workloads found in BENCHMARK.json"; exit 1; }; \
	for w in $$workloads; do for trace in 0 1; do \
		echo "$(GO) run ./benchmark -workload $$w -seed 1 -seconds 2 -trace $$trace"; \
		out=$$($(GO) run ./benchmark -workload $$w -seed 1 -seconds 2 -trace $$trace) \
			|| { echo "$$out"; echo "benchcheck: $$w (trace $$trace) exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' \
			|| { echo "$$out"; echo "benchcheck: $$w (trace $$trace) did not report \"correct\":true"; exit 1; }; \
	done; done

# benchpair runs the paired comparison a performance claim is judged by:
# PARENT and HEAD, each built from its committed tree, run WORKLOAD untraced
# at seeds 1..PAIRS, alternating which side runs first; it prints every
# end-to-end metric's quartiles per side and HEAD's wins out of PAIRS. It
# writes only under $TMPDIR (see scripts/benchpair.sh).
#   make benchpair PARENT=0b30823 WORKLOAD=cip_vgg_f64 PAIRS=10
PAIRS ?= 10
benchpair:
	@[ -n "$(PARENT)" ] && [ -n "$(WORKLOAD)" ] || { echo "usage: make benchpair PARENT=<ref> WORKLOAD=<w> [PAIRS=10]"; exit 2; }
	sh scripts/benchpair.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)"

# wirecheck is the wire-path conformance sweep: golden byte-exact frame
# fixtures, the codec/compression unit and property suites (including the
# ≥10x byte reduction of a topk8 frame against the dense one), the
# handshake's refusal of a hello without the binary offer and the
# compressed e2e/restart tests, short fuzz bursts over both frame
# decoders, the streaming update and partial decoders against the
# byte-slice ones, and the top-k selection.
wirecheck:
	$(GO) test -count=1 ./internal/fl/wire ./internal/fl/compress
	$(GO) test -count=1 -run 'Sparse|Densify|Handshake|Compressed|Bank' \
		./internal/fl ./internal/fl/transport ./internal/fl/checkpoint
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=5s ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecompressUpdate$$' -fuzztime=5s ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeUpdateStream$$' -fuzztime=5s ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePartialStream$$' -fuzztime=5s ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz='^FuzzTopKSelect$$' -fuzztime=5s ./internal/fl/compress

# quickcheck regenerates every experiment table at quick scale and diffs
# it against the committed experiments_quick.txt, "(<id> in <t>)" timing
# lines removed from both sides: any other difference means a change moved
# a table cell. The regeneration fills a cell cache and a second pass
# serves every table from it, diffed the same way, so the cache's round
# trip of the typed tables is pinned on every real table. Last,
# `-exp theorem1 -repeat 2` must exit 0: it aggregates a percentage cell
# across seeds. About 4-6 min on 2 vCPUs; the cached pass is nearly free.
quickcheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	timing='^([a-z0-9]* in [^)]*)$$'; \
	grep -v "$$timing" experiments_quick.txt > "$$tmp/want.txt"; \
	for pass in computed cached; do \
		$(GO) run ./cmd/cipbench -exp all -preset quick -cache-dir "$$tmp/cells" > "$$tmp/run.txt" || exit 1; \
		grep -v "$$timing" "$$tmp/run.txt" > "$$tmp/got.txt"; \
		diff -u "$$tmp/want.txt" "$$tmp/got.txt" \
			|| { echo "quickcheck: $$pass tables differ from experiments_quick.txt"; exit 1; }; \
	done; \
	$(GO) run ./cmd/cipbench -exp theorem1 -preset quick -repeat 2 > /dev/null \
		|| { echo "quickcheck: cipbench -exp theorem1 -repeat 2 failed"; exit 1; }

# check is the full CI gate: static analysis, the orphan gate, the arm64
# cross-compile, the portable-kernel tests, the sweep bodies' tests with
# what each ran, one pass of the convolution benchmark, the race-enabled suite, the engine oracle five times under
# race, the allocation bounds ten times, a short fuzz burst, the
# crash-harness smoke, the byzantine smoke, the wire-path conformance
# sweep, and a short untraced and traced run of every repository-benchmark
# workload.
check: vet orphans staticcheck crosscheck portable sweepbodies convbench race oracle alloccheck fuzz chaossmoke byzsmoke wirecheck benchcheck
