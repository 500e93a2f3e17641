# Targets mirror the CI pipeline (.github/workflows/ci.yml) so local runs
# match what the gates enforce.

GO ?= go

.PHONY: all build vet fmt lint test race bench benchmark serve serve-smoke router-smoke load-smoke saturation cover ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs reformatting (same gate as CI).
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Static analysis. The repo's own invariant analyzers (cmd/hetlint, see
# DESIGN.md §11) load the whole module into one program: the per-package
# suite (maporder, hotpath, nodeterm, floatorder, atomicfield) runs over each
# package and the cross-package analyzers (hotpathprop, allocfree,
# lockorder) over the full call graph. staticcheck and shellcheck run when
# installed and are skipped otherwise (the CI lint job always has them, so
# skipping locally never hides a gate).
lint:
	@mkdir -p bin
	$(GO) build -o bin/hetlint ./cmd/hetlint
	bin/hetlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI enforces it)"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipped (CI enforces it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Compile and run every benchmark once (smoke), as CI does. For real
# numbers use e.g.: go test -bench 'Campaign|Sweep' -benchtime=10x .
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository's benchmark (BENCHMARK.json, benchmark/README.md), as the
# CI benchmark job runs it: all six workloads for 1 s each, untraced then
# traced. Fails when any operation fails or any answer is wrong. Drop
# -seconds for the full-length run that comparisons between commits use.
benchmark:
	$(GO) run -C benchmark . -seconds 1

# Run the planner service against the committed model fixture (ctrl-C to
# stop). Query it with e.g.:
#   curl 'localhost:8080/v1/topk?n=9600&topk=3'
serve:
	$(GO) run ./cmd/hetserve -model cmd/hetserve/testdata/model_nl.json

# End-to-end smoke test: hetserve answers must match hetopt's direct search
# bit for bit (same gate as the CI serve-smoke job).
serve-smoke:
	sh scripts/serve_smoke.sh

# Fleet gate: 3 members + a hetrouter; the router's merged answers must be
# byte-identical to a whole-grid search, survive a member death via
# re-scatter, and the coordinated reload must be all-or-none (same gate as
# the CI router-smoke job).
router-smoke:
	sh scripts/router_smoke.sh

# Traffic-harness gate: regenerate the committed smoke trace and replay it
# in virtual time against a live hetserve; both must match the committed
# goldens byte for byte (same gate as the CI load-smoke job).
load-smoke:
	sh scripts/load_smoke.sh

# Saturation sweep against a capacity-constrained hetserve: writes
# saturation.json + saturation.svg and reports the admission-control knee
# (CI runs this non-blocking and uploads the artifacts). Strict by default;
# SATURATION_STRICT=0 tolerates a missing knee on slow machines.
saturation:
	sh scripts/saturation.sh

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out

ci: build vet fmt lint test race bench serve-smoke router-smoke load-smoke
