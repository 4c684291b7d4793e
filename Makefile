# Convenience targets around the plain-go workflow (everything also works
# with bare `go` commands; see README.md).

GO ?= go

# PR numbers the bench-json snapshot; bump it (or pass PR=<n>) so each PR
# that touches the engine writes its own BENCH_PR<n>.json.
PR ?= 15

# The extended vet set: standalone `go vet` runs its full analyzer
# registry (atomic, copylocks, loopclosure, lostcancel, unsafeptr,
# unreachable, unusedresult, ...), a strict superset of the small
# high-confidence subset `go test` applies automatically. Passing -NAME
# flags would RESTRICT vet to only those analyzers, so VETFLAGS stays
# empty by default; use it to disable a pass (-NAME=false) if one ever
# misfires.
VETFLAGS :=

.PHONY: build test race bench bench-json bench-diff check-docs lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of everything, as CI runs it.
bench:
	$(GO) test -run xxx -bench=. -benchtime=1x ./...

# Machine-readable benchmark snapshot: the runtime experiments (sharding,
# batching, native TO vs the Sharded rail, multiversion reads, durable
# commit, checkpointed WAL, native SGT/OCC) rendered as JSON. Each PR
# that touches the engine refreshes its BENCH_PR<n>.json so the
# repository accumulates a throughput trajectory that later PRs can diff
# against.
bench-json:
	$(GO) run ./cmd/ccbench -exp E8,E10,E11,E12,E13,E14,E15 -json > BENCH_PR$(PR).json

# Per-experiment throughput delta between the two newest snapshots
# (version-sorted, so PR10 follows PR9). See cmd/benchdiff.
bench-diff:
	$(GO) run ./cmd/benchdiff $$(ls BENCH_PR*.json | sort -V | tail -2)

check-docs:
	./scripts/check-docs.sh

# Static analysis: gofmt, the extended vet set, and cclint — the
# project-specific analyzer suite (lock hierarchy, zero-alloc hot path,
# buffer recycling, atomics discipline, goroutine joins; see DESIGN.md
# "Static analysis"). staticcheck runs when installed (CI installs a pinned
# version; locally `go install honnef.co/go/tools/cmd/staticcheck@2025.1.1`).
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet $(VETFLAGS) ./...
	$(GO) run ./cmd/cclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

ci: check-docs lint build race bench
