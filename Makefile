GO ?= go

.PHONY: build test race vet fmt check cover bench campaign golden wdl-golden diff fuzz soak daemon-e2e audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cover writes cover.out and prints the total; CI enforces the floor.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# bench runs one iteration of every benchmark (smoke, not measurement).
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# campaign is the result cache's acceptance check, end to end through
# cmd/experiments. A one-workload fig9 run, then a two-workload run over the
# same cache: the second must reuse every cell the first simulated (the
# cache is the checkpoint an interrupted campaign resumes from) and simulate
# the rest. A third, warm-cache run must perform zero simulations.
# experiments.Sample keeps workload 0 in both sets, so the counts are exact.
CAMPAIGN_CACHE := .campaign-cache
CAMPAIGN_RUN = $(GO) run ./cmd/experiments -exp fig9 -warmup 5000 -instrs 10000 -cache-dir $(CAMPAIGN_CACHE)
campaign: build
	@rm -rf $(CAMPAIGN_CACHE)
	@first=$$($(CAMPAIGN_RUN) -max-workloads 1 | grep '^campaign:') && \
	second=$$($(CAMPAIGN_RUN) -max-workloads 2 | grep '^campaign:') && \
	echo "$$first" >&2 && echo "$$second" >&2 && \
	sim1=$$(echo "$$first" | sed -n 's/.*simulated=\([0-9]*\).*/\1/p') && \
	sim2=$$(echo "$$second" | sed -n 's/.*simulated=\([0-9]*\).*/\1/p') && \
	hit2=$$(echo "$$second" | sed -n 's/.*cached=\([0-9]*\).*/\1/p') && \
	[ -n "$$sim1" ] && [ "$$sim1" -gt 0 ] && [ "$$hit2" = "$$sim1" ] && [ "$$sim2" -gt 0 ] \
		&& echo "campaign: partial re-run reused all $$sim1 finished cells and simulated $$sim2 new ones" \
		|| { echo 'campaign: FAIL — the larger run did not reuse exactly the finished cells'; rm -rf $(CAMPAIGN_CACHE); exit 1; }
	@$(CAMPAIGN_RUN) -max-workloads 2 | tee /dev/stderr | grep '^campaign:' | grep -q 'simulated=0' \
		&& echo 'campaign: warm-cache re-run performed zero simulations' \
		|| { echo 'campaign: FAIL — warm-cache re-run still simulated'; rm -rf $(CAMPAIGN_CACHE); exit 1; }
	@rm -rf $(CAMPAIGN_CACHE)

# audit lists the model functions no experiment runs: cmd/experiments is
# built with coverage over every package and runs `-exp all` once at full
# detail and once sampled; the functions of the model packages still at
# 0.0% are printed. Not a gate, since test-only accessors are on the list
# too; a function named here must be read by a check or a DESIGN.md §5
# ablation, or go.
audit:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir -p "$$dir/cov" && \
	$(GO) build -cover -coverpkg=./... -o "$$dir/experiments" ./cmd/experiments && \
	GOCOVERDIR="$$dir/cov" "$$dir/experiments" -exp all -max-workloads 4 -warmup 5000 -instrs 10000 >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/experiments" -exp all -sample -max-workloads 2 -warmup 5000 -instrs 50000 >/dev/null && \
	$(GO) tool covdata func -i="$$dir/cov" | \
		grep -E '^repro/internal/(cache|tlb|ptw|dram|cpu|mmu|core|prefetch|vmem|sample|sim)/' | \
		awk '$$NF == "0.0%"'

# soak runs the daemon chaos harness — fault injection, cache corruption,
# hostile clients, graceful and hard restarts — for SOAK under the race
# detector, asserting no lost/duplicated jobs, byte-identical results
# versus a fault-free baseline, and no leaked goroutines.
SOAK ?= 30s
soak:
	PGCD_SOAK=$(SOAK) $(GO) test -race -run TestChaosSoak -v ./internal/daemon

# daemon-e2e drives cmd/pgcd end to end through its HTTP API: submit,
# warm-cache re-submit (zero simulations), SIGTERM mid-campaign (graceful
# drain, exit 0), restart, and resume to completion from the cache.
daemon-e2e:
	bash scripts/pgcd_e2e.sh

# golden re-records the golden fingerprints after a deliberate behavioural
# change — full-detail snapshots, sampled-mode snapshots, multi-core mix
# snapshots, and the sampled-vs-full error table (whose accuracy gates still apply while
# recording); review the diff before committing.
golden:
	$(GO) test ./internal/sim -run TestGolden -update

# wdl-golden re-records the WDL corpus: the canonical .wdl file for every
# generator family (emitted by the printer) and the compiled-config JSON each
# must produce. The differential suite then re-proves every file compiles to
# a byte-identical instruction stream.
wdl-golden:
	$(GO) test ./internal/wdl -run TestWDLGolden -update

# diff runs the differential sim-vs-oracle suite: clean runs across every
# policy and family, both injected acceptance bugs (MSHR leak, stale PTE)
# with shrinking + repro replay, the -race multicore sweep, and the matrix
# ledger's check-failure entries in both checking modes under -race.
diff:
	$(GO) test ./internal/sim -run 'Check|Shrink|Injected' -v
	$(GO) test -race ./internal/sim -run TestRaceMulticoreDifferential -v
	$(GO) test -race ./internal/experiments -run TestMatrixLedgersCheckViolations -v

# fuzz gives each fuzz target CI runs the same bounded budget; the sim
# targets' counterexamples are shrunk and written under
# internal/sim/testdata/repro/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSimVsOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzTraceStream -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzSampledVsFull -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzDecodeRuns -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzKeyPreimage -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/wdl -run '^$$' -fuzz FuzzWDLParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wdl -run '^$$' -fuzz FuzzWDLRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzMSHRFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUpdateBuffer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lrustack -run '^$$' -fuzz FuzzLRUStack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tlb -run '^$$' -fuzz FuzzTLB -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics -run '^$$' -fuzz FuzzSnapshotJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1x

# fmt fails when any Go file is not gofmt-formatted, as CI's gofmt step does.
fmt:
	@files=$$(gofmt -l .); [ -z "$$files" ] || { echo "gofmt needed:"; echo "$$files"; exit 1; }

# check is the CI gate: vet, gofmt, build, and the full suite under the race
# detector (the resilience tests exercise the worker pool concurrently).
check: vet fmt build race
