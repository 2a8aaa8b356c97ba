GO ?= go

.PHONY: build test race vet check cover bench campaign golden wdl-golden diff fuzz soak daemon-e2e

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

# campaign runs a tiny cached campaign twice and asserts the warm-cache
# re-run performs zero simulations — the content-addressed result cache's
# acceptance check, end to end through cmd/experiments.
CAMPAIGN_CACHE := .campaign-cache
campaign: build
	@rm -rf $(CAMPAIGN_CACHE)
	@$(GO) run ./cmd/experiments -exp fig9 -max-workloads 2 -warmup 5000 -instrs 10000 \
		-cache-dir $(CAMPAIGN_CACHE) >/dev/null
	@$(GO) run ./cmd/experiments -exp fig9 -max-workloads 2 -warmup 5000 -instrs 10000 \
		-cache-dir $(CAMPAIGN_CACHE) | tee /dev/stderr | grep '^campaign:' | grep -q 'simulated=0' \
		&& echo 'campaign: warm-cache re-run performed zero simulations' \
		|| { echo 'campaign: FAIL — warm-cache re-run still simulated'; rm -rf $(CAMPAIGN_CACHE); exit 1; }
	@rm -rf $(CAMPAIGN_CACHE)

# soak runs the daemon chaos harness — fault injection, cache corruption,
# hostile clients, graceful and hard restarts — for SOAK under the race
# detector, asserting no lost/duplicated jobs, byte-identical results
# versus a fault-free baseline, and no leaked goroutines.
SOAK ?= 30s
soak:
	PGCD_SOAK=$(SOAK) $(GO) test -race -run TestChaosSoak -v ./internal/daemon

# daemon-e2e drives cmd/pgcd end to end through its HTTP API: submit,
# warm-cache re-submit (zero simulations), SIGTERM mid-campaign (graceful
# drain, exit 0), restart, and resume to completion.
daemon-e2e:
	bash scripts/pgcd_e2e.sh

# golden re-records the golden fingerprints after a deliberate behavioural
# change — full-detail snapshots, sampled-mode snapshots, and the
# sampled-vs-full error table (whose accuracy gates still apply while
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
# with shrinking + repro replay, and the -race multicore sweep.
diff:
	$(GO) test ./internal/sim -run 'Check|Shrink|Injected' -v
	$(GO) test -race ./internal/sim -run TestRaceMulticoreDifferential -v

# fuzz gives each differential fuzz target a bounded budget; counterexamples
# are shrunk and written under internal/sim/testdata/repro/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSimVsOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzTraceStream -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzSampledVsFull -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wdl -run '^$$' -fuzz FuzzWDLParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wdl -run '^$$' -fuzz FuzzWDLRoundTrip -fuzztime $(FUZZTIME)

# check is the CI gate: vet, build, and the full suite under the race
# detector (the resilience tests exercise the worker pool concurrently).
check: vet build race
