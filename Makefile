# Tier-1 gate and developer targets. `make check` is what CI runs:
# scripts/check.sh, the single definition of the gate (vet, build,
# race-enabled tests, self-tests, bench and fuzz smokes, coverage
# floors, and the CLI resume/compile/serve/evolve smokes).

GO ?= go
FUZZTIME ?= 10s

.PHONY: check test cover bench-quick golden

check:
	scripts/check.sh $(FUZZTIME)

test:
	$(GO) test ./...

# Per-package coverage table with hard floors on the triage layer
# (internal/triage, internal/difffuzz); see scripts/cover.sh.
cover:
	scripts/cover.sh

# Every Go benchmark once, as a smoke. The benchmark record is
# perfbench (BENCHMARK.json); the BENCH_*.json files are frozen history.
bench-quick:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# Regenerate testdata/golden/*.golden after an *intentional* semantic
# change; review the diff before committing.
golden:
	$(GO) test -run TestGoldenCorpus -update .
