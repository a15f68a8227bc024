GO ?= go

.PHONY: check fmt vet test race lint-fixtures analysis-smoke bench telemetry-smoke commit-smoke compile-smoke serve-smoke trace-smoke mvcc-smoke bench-check

## check: everything CI runs — formatting, vet, build+tests, the race
## detector over the concurrency-sensitive packages, the sppc -lint
## self-check over the shipped IR fixtures, the per-diagnostic
## analysis smoke test, the disabled-telemetry overhead smoke test,
## the commit-pipeline differential crash tests plus a tiny run of
## the commit experiment, the compiled-vs-interpreted differential
## tests plus a tiny run of the compile experiment, the KV service
## suite plus a tiny run of the serve experiment, the request-
## tracing smoke test plus a sampled run of the serve experiment,
## the MVCC snapshot suite plus a tiny run of the scan experiment,
## and vet plus tests of the nested servebench module.
check: fmt vet test race lint-fixtures analysis-smoke telemetry-smoke commit-smoke compile-smoke serve-smoke trace-smoke mvcc-smoke bench-check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) build ./...
	$(GO) test ./...

## race: the concurrency-sensitive packages under the race detector —
## the memory path (device, allocator, lanes), the runtimes above it,
## the concurrent kvstore workloads, and the compiled dispatch.
race:
	$(GO) test -race ./internal/pmem ./internal/pmemobj ./internal/hooks ./internal/kvstore ./internal/telemetry ./internal/trace ./internal/interp ./internal/server ./internal/wire ./client

## lint-fixtures: the clean fixture must lint clean; the laundered one
## must be flagged (non-zero exit) — both outcomes are asserted.
lint-fixtures:
	$(GO) run ./cmd/sppc -lint examples/compiler-pass/clean.ir
	@if $(GO) run ./cmd/sppc -lint examples/compiler-pass/laundered.ir; then \
		echo "laundered.ir unexpectedly passed lint"; exit 1; \
	else echo "laundered.ir flagged as expected"; fi

## analysis-smoke: every seeded-bug fixture must produce exactly its
## diagnostic code (non-zero exit + the rule name in the output), and
## the clean fixture must stay clean — one fixture per linter rule.
analysis-smoke:
	@set -e; \
	for pair in \
		double-flush.ir:double-flush \
		fence-no-flush.ir:fence-no-pending-flush \
		store-after-flush.ir:store-after-flush-before-fence \
		missing-flush.ir:unflushed-pm-store \
		laundered.ir:laundered-pointer; do \
		f=$${pair%%:*}; rule=$${pair##*:}; \
		out="$$($(GO) run ./cmd/sppc -lint examples/compiler-pass/$$f 2>&1)" \
			&& { echo "$$f unexpectedly passed lint"; exit 1; } || true; \
		echo "$$out" | grep -q "$$rule" \
			|| { echo "$$f did not report $$rule:"; echo "$$out"; exit 1; }; \
		echo "$$f -> $$rule ok"; \
	done
	$(GO) run ./cmd/sppc -lint examples/compiler-pass/clean.ir

bench:
	$(GO) run ./cmd/sppbench -exp all -scale 0.02 | tee bench_results.txt

## telemetry-smoke: asserts the disabled-path cost of an instrumented
## counter stays within an order of magnitude of a bare loop — the
## "near-zero cost while off" contract, plus the Prometheus text-format
## golden test that keeps scrapers working.
telemetry-smoke:
	$(GO) test -run 'TestDisabledOverheadSmoke|TestWritePromGolden' ./internal/telemetry -count=1

## commit-smoke: the batched commit pipeline's recovery-equivalence
## proof — pmreorder exploration at every fence under all eight knob
## combinations plus the batched-vs-unbatched durable-image diff — and
## a tiny-scale run of the commit experiment end to end.
commit-smoke:
	$(GO) test -run 'TestBatchedCommit' ./internal/pmemobj -count=1
	$(GO) run ./cmd/sppbench -exp commit -scale 0.002 -threads 1,2

## compile-smoke: the closure-compiled dispatch must agree with the
## reference interpreter — results, fault verdicts, durable images —
## and the bitmap allocator must round-trip against the map-based
## free lists, plus a tiny run of the compile experiment end to end.
compile-smoke:
	$(GO) test -run 'TestCompile|TestCompiled|TestBitmap|TestFbits' ./internal/interp ./internal/transform ./internal/pmemobj -count=1
	$(GO) run ./cmd/sppbench -exp compile -scale 0.005

## serve-smoke: the KV service suite — multi-tenant clients over a
## real socket, malformed-frame rejection, admission-control shedding
## with bounded latency, kill-and-restart crash recovery — plus a
## tiny closed-loop run of the serve experiment end to end.
serve-smoke:
	$(GO) test ./internal/server ./internal/wire ./client -count=1
	$(GO) run ./cmd/sppbench -exp serve -scale 0.002

## trace-smoke: the end-to-end tracing contract — a fully sampled run
## must attribute queue, exec and fence time and surface a slow-request
## exemplar on /debug/slow (TestTraceSmoke), the trace-header wire
## extension must stay backward compatible, and a sampled closed-loop
## serve run must populate the attribution columns.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestTrace|TestSampler|TestSlow' ./internal/server ./internal/wire ./internal/trace -count=1
	@out="$$($(GO) run ./cmd/sppbench -exp serve -scale 0.002 -trace-sample 4)"; \
	echo "$$out"; \
	echo "$$out" | awk '$$1=="SPP" && $$2=="64" { found=1; if ($$7=="-" || $$7=="") bad=1 } \
		END { exit (found && !bad) ? 0 : 1 }' \
		|| { echo "attribution columns not populated for the SPP/64 row"; exit 1; }

## mvcc-smoke: the MVCC snapshot contract — frozen-under-storm property
## test, epoch-reclaim leak check, differential fault verdicts on the
## snapshot path, mid-storm crash recovery, scan oracle in both read
## modes across a mode-switching reopen, the concurrent mixed workload
## in both read modes, end-to-end OpScan, the shard/bucket spread
## regression, corrupt store roots and shard headers rejected at open
## without writes — plus a tiny run of the scan
## experiment asserting the snapshot reader keeps a non-zero read rate
## under the write storm.
mvcc-smoke:
	$(GO) test -run 'TestSnapshot|TestEpochReclaim|TestScan|TestCrashRecoveryMidStorm|TestRehashMaint|TestConcurrentMixedWorkload|TestBucketSpread|TestOpenRejectsCorruptStore' ./internal/kvstore ./internal/server ./internal/wire -count=1
	@out="$$($(GO) run ./cmd/sppbench -exp scan -scale 0.002)"; \
	echo "$$out"; \
	echo "$$out" | awk '$$1=="mvcc" && $$2=="storm" { found=1; if ($$3+0 <= 0) bad=1 } \
		END { exit (found && !bad) ? 0 : 1 }' \
		|| { echo "mvcc/storm row missing or snapshot reads stalled under the write storm"; exit 1; }

## bench-check: the servebench benchmark is a nested module, so the
## root ./... lists none of its packages; vet and test it on its own
## so an API change it depends on cannot break it unnoticed.
bench-check:
	$(GO) -C servebench vet ./...
	$(GO) -C servebench test ./...
