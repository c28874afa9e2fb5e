# Developer conveniences; CI runs the underlying commands directly
# (.github/workflows/ci.yml) so this file is never load-bearing.

BASELINE := testdata/bench_baseline.json

.PHONY: test race lint fuzz bench-report

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/serve/... ./internal/runner/... \
	    ./internal/graph/... ./internal/substrate/... ./internal/lp/... \
	    ./internal/obs/... ./internal/scenario/... ./internal/plan/... \
	    ./internal/embedder/... ./internal/core/...
	go test -race -run 'TestRunSweep|TestWindowedPlanRun' ./internal/sim/

# Everything the CI lint + olivelint jobs run, in one target. staticcheck
# is optional locally (skipped with a note when not installed); olivelint
# runs both standalone and through the vet driver, matching CI.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	    echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go test ./internal/lint/...
	go run ./cmd/olivelint ./...
	@go build -o /tmp/olivelint ./cmd/olivelint && \
	    go vet -vettool=/tmp/olivelint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
	    staticcheck -checks "all,-ST1000,-ST1003,-ST1020,-ST1021,-ST1022" ./...; \
	else \
	    echo "lint: staticcheck not installed locally; skipped (CI runs it)" >&2; \
	fi

# Short local fuzz passes over the external-bytes parsers (the /v1/embed
# body decoder and the scenario loader among them), the simplex against
# its dense reference,
# FULLG's restricted search and plan.Build's options and classes (same
# targets as the CI smoke step; raise FUZZTIME to grow the corpus).
FUZZTIME ?= 30s
fuzz:
	go test -run=NONE -fuzz='^FuzzLPLoad$$' -fuzztime=$(FUZZTIME) ./internal/lp
	go test -run=NONE -fuzz='^FuzzSolveAgainstReference$$' -fuzztime=$(FUZZTIME) ./internal/lp
	go test -run=NONE -fuzz='^FuzzObsParseText$$' -fuzztime=$(FUZZTIME) ./internal/obs
	go test -run=NONE -fuzz='^FuzzRestrictedSearch$$' -fuzztime=$(FUZZTIME) ./internal/embedder
	go test -run=NONE -fuzz='^FuzzPlanBuild$$' -fuzztime=$(FUZZTIME) ./internal/plan
	go test -run=NONE -fuzz='^FuzzEmbedBody$$' -fuzztime=$(FUZZTIME) ./internal/serve
	go test -run=NONE -fuzz='^FuzzScenarioSpec$$' -fuzztime=$(FUZZTIME) ./internal/sim

# Emit a machine-readable perf snapshot (bench_report.json) of every
# benchmark the CI guard pins, run under the guard's exact conditions
# (GOMAXPROCS + per-bench benchtime from the baseline file). Rename the
# output to BENCH_<pr>.json and fill in before/after when a perf PR
# lands — see CONTRIBUTING.md "Benchmark baseline".
bench-report:
	@export GOMAXPROCS=$$(jq -r '.gomaxprocs // 1' $(BASELINE)); \
	n=$$(jq '.benchmarks | length' $(BASELINE)); \
	rows=""; \
	for i in $$(seq 0 $$((n - 1))); do \
	    name=$$(jq -r ".benchmarks[$$i].benchmark" $(BASELINE)); \
	    pkg=$$(jq -r ".benchmarks[$$i].package" $(BASELINE)); \
	    btime=$$(jq -r ".benchmarks[$$i].benchtime // \"1x\"" $(BASELINE)); \
	    echo "bench-report: $$name ($$pkg, -benchtime=$$btime)" >&2; \
	    out=$$(go test -run=NONE -bench="^$$name\$$" -benchtime="$$btime" -benchmem "$$pkg") || exit 1; \
	    row=$$(echo "$$out" | awk -v n="$$name" -v p="$$pkg" -v bt="$$btime" ' \
	        $$1 ~ ("^" n) { \
	            ns = allocs = bytes = "null"; \
	            for (k = 1; k < NF; k++) { \
	                if ($$(k+1) == "ns/op") ns = $$k; \
	                if ($$(k+1) == "allocs/op") allocs = $$k; \
	                if ($$(k+1) == "B/op") bytes = $$k; \
	            } \
	            printf "{\"benchmark\":\"%s\",\"package\":\"%s\",\"benchtime\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s,\"bytes_per_op\":%s}", n, p, bt, ns, allocs, bytes; \
	        }'); \
	    [ -n "$$row" ] || { echo "bench-report: no output row for $$name" >&2; exit 1; }; \
	    rows="$$rows$${rows:+,}$$row"; \
	done; \
	printf '%s' "[$$rows]" | jq "{date: \"$$(date -u +%Y-%m-%d)\", go: \"$$(go env GOVERSION) $$(go env GOOS)/$$(go env GOARCH)\", gomaxprocs: $$GOMAXPROCS, benchmarks: .}" \
	    > bench_report.json; \
	echo "bench-report: wrote bench_report.json" >&2; \
	jq . bench_report.json
