GO ?= go

# Benchmark knobs: DK_BENCH_SCALE sets the XMark fraction loaded by
# bench_test.go; BENCHTIME feeds the profile targets' -benchtime.
DK_BENCH_SCALE ?= 1.0
BENCHTIME ?= 2s

.PHONY: all build test race vet fmt-check inline-check unlinked bench-compile bench-baseline bench-guard profile-build profile-read profile-cache profile-write stress fuzz-smoke ci size clean

all: build test

# ci chains every hygiene gate: compile, vet, formatting, the check that the
# hot read accessors still inline, the check that every production function
# is linked into some binary or allowed by name, the check that the untouched benchmark
# module still builds and passes against this tree (its
# smoke run drives all four serving workloads through the real server,
# oracle-checked), the race-enabled test suite (which includes the replica
# flaky-link convergence test in its short form and the in-memory shard
# engine's bit-identity audits), short fuzz runs of the decoders, the stress
# battery (snapshot races, crash-point sweeps — store and replica catch-up —
# replication under faults, and the shard engine's reader/writer stress)
# under the race detector, and the benchmark regression guard against the
# recorded baseline.
# Serving throughput and latency are measured by `bash benchmark/run.sh`, not
# here.
ci: build vet fmt-check inline-check unlinked bench-compile race fuzz-smoke stress bench-guard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs the snapshot-isolation stress test, the group-commit pipeline
# stress test, the crash-point sweep, the construction audit, and the
# replication pair under -race: the first hammers a torn publish, the second
# cycles concurrent ApplyBatch writers against snapshot readers and watermark
# pollers, the third injects a crash at every I/O operation of a mutation
# scenario (including inside a WAL group frame) and proves recovery lands on
# exactly the acknowledged state, the fourth proves the
# counting-sort refinement and the D(k) builds block-identical to the
# independent ones of internal/oracle on every experiment dataset, the fifth drives a replica
# over a flaky link to bit-identical convergence and sweeps a primary crash
# at every I/O point of a replica catch-up (the full grid; `go test -short`
# runs a strided subset) and reaches two document batches (one that merges
# index nodes in place, one that grafts) live, on a replica and by recovery,
# one commit per logged frame each, and the sixth races concurrent merged readers
# against a writer feeding the in-memory shard engine (the one
# benchmark/probes.go times) documents and edge batches split across its
# shards, checking every merged result stays sorted and duplicate-free.
stress:
	$(GO) test -race -count 2 -run TestSnapshotStressConcurrent .
	$(GO) test -race -count 2 -run TestApplyBatchStressConcurrent .
	$(GO) test -race -count 1 -run TestStoreCrashPointSweep .
	$(GO) test -race -count 1 -run 'TestBuildPartitionIdentityXMark|TestBuildPartitionIdentityNasa|TestBuildPartitionIdentityDblp' ./internal/experiments/
	$(GO) test -race -count 1 -run 'TestReplicaConvergesUnderFaults|TestReplicaCatchUpCrashSweep|TestDocumentGroupThreeWays' ./internal/replica/
	$(GO) test -race -count 1 -run TestShardConcurrentReadersWriters ./internal/shard/

# fuzz-smoke gives each untrusted-input decoder a short fuzzing burst — the
# checkpoint codec, the write-ahead log replayer, the XML loader — and each
# query kernel a differential one against its oracle in internal/oracle: the
# table-driven RPE automata (against a Thompson construction of the oracle's
# own), and the one trunk walker behind twigs and simple paths (a
# predicate-free twig is also run as a path through Data and Index). The server's append encoder, its /v1/mutate body scanner
# and its RawQuery reader are held to encoding/json and net/url the same way,
# Algorithm 3's in-place graft and merge
# to the whole-index rebuild they replace, and the two copy-on-write columns
# behind every snapshot (elements and adjacency rows) to plain slices. Long
# exploratory runs stay manual (go test -fuzz=... -fuzztime=5m).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadDK -fuzztime 5s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 5s ./internal/xmlgraph
	$(GO) test -run '^$$' -fuzz FuzzFromSortedAlgebra -fuzztime 5s ./internal/nodeset
	$(GO) test -run '^$$' -fuzz FuzzKernelAgainstReference -fuzztime 5s ./internal/rpe
	$(GO) test -run '^$$' -fuzz FuzzTwigAgainstReference -fuzztime 5s ./internal/eval
	$(GO) test -run '^$$' -fuzz FuzzQueryBodyAgainstEncodingJSON -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzQueryParamAgainstParseQuery -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzMutateBodyAgainstEncodingJSON -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzGraftAgainstRebuild -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPagedAgainstSlices -fuzztime 5s ./internal/cow
	$(GO) test -run '^$$' -fuzz FuzzRowsAgainstSlices -fuzztime 5s ./internal/cow

vet:
	$(GO) vet ./...

# bench-compile vets and tests the benchmark/ module (a Go module of its own
# that imports dkindex/internal/...) against the working tree, and fails if
# benchmark/ or BENCHMARK.json differ from HEAD: a change that claims a gain
# may not edit the benchmark, so an API change that would force such an edit
# is caught here rather than by the pipeline.
bench-compile:
	@out=$$(git status --porcelain -- benchmark BENCHMARK.json); if [ -n "$$out" ]; then \
		echo "the benchmark may not be edited:"; echo "$$out"; exit 1; fi
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# inline-check fails when the compiler stops inlining one of the accessors
# every query step calls: a paged read that becomes a call cost PR 14 5-9 % of
# read time, and only a benchmark noticed.
INLINED = '(*Graph).Label' '(*Graph).Children' '(*Graph).Parents' \
	'(*IndexGraph).Label' '(*IndexGraph).Children' '(*IndexGraph).Parents' '(*IndexGraph).IndexOf'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/graph ./internal/index 2>&1); fail=0; \
	for fn in $(INLINED); do \
		echo "$$out" | grep -qF "can inline $$fn" || { echo "no longer inlined: $$fn"; fail=1; }; \
	done; \
	echo "$$out" | grep -qE 'can inline cow\.\(\*Paged\[.*\]\)\.At$$' || { echo "no longer inlined: (*Paged[...]).At"; fail=1; }; \
	echo "$$out" | grep -qE 'can inline cow\.\(\*Rows\[.*\]\)\.Row$$' || { echo "no longer inlined: (*Rows[...]).Row"; fail=1; }; \
	exit $$fail

# unlinked builds every command, every example and the benchmark module with
# inlining off and fails on a production function that none of them links,
# unless unlinked_test.go's allowlist names it with the tests that read it or
# the reason it stays. The test file carries the `unlinked` build tag, so
# `go test ./...` never builds it.
unlinked:
	$(GO) test -tags unlinked -run '^TestEveryFunctionIsLinked$$' -count 1 -v .

# bench-baseline records the regression-guard baseline: several short
# repetitions of the guarded benchmarks (query throughput, the XMark
# construction trio — 1-index, A(2) and the load-tuned D(k) — and the D(k)
# build alone, the cold RPE and
# twig evaluations that validate against the data graph, the parallel
# snapshot-serving path, the in-memory group-commit write pipeline for an
# edge batch and for a batch of eight documents, onto the tuned index and
# onto one fifteen edge batches decayed, so that the documents merge index
# nodes in place, the in-memory shard
# engine's scatter-gather read and shard-split write paths (the engine
# serves nothing; benchmark/probes.go times it), and one
# /v1/query through the server's ServeHTTP as a result-cache hit, as a
# miss with the cache off and as a validating miss that stores its answer),
# parsed to JSON. bench-guard compares future runs against it per
# benchmark name on best-of-N B/op and allocs/op.
GUARDED_BENCH = BenchmarkQueryThroughput$$|BenchmarkBuildXMark$$|BenchmarkConstructionDK$$|BenchmarkXMLLoad$$|BenchmarkCodecLoad$$|BenchmarkQueryRPE$$|BenchmarkQueryTwigDK$$|BenchmarkSnapshotQueryParallel$$|BenchmarkApplyBatchPipeline$$|BenchmarkApplyDocBatch$$|BenchmarkApplyDocBatchAfterEdges$$|BenchmarkShardQueryFanout$$|BenchmarkShardApplyBatch$$|BenchmarkServeQueryHit$$|BenchmarkServeQueryMiss$$|BenchmarkServeQueryStore$$
GUARDED_PKGS = . ./internal/shard/ ./internal/server/

bench-baseline:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench '$(GUARDED_BENCH)' -benchmem -benchtime 1s -count 5 $(GUARDED_PKGS) \
		| $(GO) run ./cmd/dkbench -benchjson > BENCH_BASELINE.json

# bench-guard fails when a benchmark in the recorded BENCH_BASELINE.json
# printed no result (it failed, or was renamed), or when the best of its five
# runs allocates more than 10% above the baseline's best in bytes (B/op) or
# in objects (allocs/op). ns/op is printed with its delta for information:
# bytes and counts repeat on a shared host, times do not. Skips with a notice
# when no baseline has been recorded yet.
bench-guard:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench '$(GUARDED_BENCH)' -benchmem -benchtime 1s -count 5 $(GUARDED_PKGS) \
		| $(GO) run ./cmd/dkbench -benchguard BENCH_BASELINE.json

# profile-build captures CPU and heap profiles of the large-XMark 1-index
# construction (the heaviest refinement workload). Inspect with
# `go tool pprof build_cpu.prof` / `go tool pprof build_mem.prof`.
profile-build:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkBuildXMark/1index' -benchtime $(BENCHTIME) \
		-cpuprofile build_cpu.prof -memprofile build_mem.prof .

# profile-read captures CPU and allocation profiles of the cold read path:
# the validating RPE and twig evaluations on the load-tuned XMark index.
# Inspect with `go tool pprof -sample_index=alloc_space read_mem.prof`.
profile-read:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkQuery(RPE|TwigDK)$$' -benchmem -benchtime $(BENCHTIME) \
		-cpuprofile read_cpu.prof -memprofile read_mem.prof -memprofilerate 4096 .

# profile-cache captures CPU and exact allocation profiles of a validating
# /v1/query miss that stores its answer in the result cache
# (BenchmarkServeQueryStore). Every allocation is sampled (-memprofilerate
# 1), so the bytes of keeping the answer can be read off by function, e.g.
# `go tool pprof -sample_index=alloc_space -list Keep cache_mem.prof`.
profile-cache:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkServeQueryStore$$' -benchmem -benchtime $(BENCHTIME) \
		-cpuprofile cache_cpu.prof -memprofile cache_mem.prof -memprofilerate 1 ./internal/server/

# profile-write captures CPU and exact allocation profiles of the write path:
# edge batches and batches of eight documents through the group-commit
# pipeline (clone, Algorithms 3, 4 and 5, publish). Every allocation is
# sampled (-memprofilerate 1), so the bytes per batch can be split by
# function; the two benchmarks share one profile, so focus on one with
# `-focus ApplyBatchPipeline` or `-focus ApplyDocBatch`. Inspect with
# `go tool pprof -sample_index=alloc_space write_mem.prof`.
profile-write:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkApplyBatchPipeline$$|BenchmarkApplyDocBatch$$' -benchmem -benchtime $(BENCHTIME) \
		-cpuprofile write_cpu.prof -memprofile write_mem.prof -memprofilerate 1 .

# size prints the numbers a PR serving ROADMAP aim 2 reports, so every such
# PR measures the same thing, all outside benchmark/ (a module of its own)
# and .bench_build/: non-test Go lines; the non-test lines of the
# test-support packages, which only tests import (the oracles, the metrics
# parser, the copy-on-write isolation check, the faulty filesystem and
# network); production lines, the first minus the second; test lines;
# package count; and the non-test lines of internal/obs without its
# test-support package, which ROADMAP item 5 budgets.
GO_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'
TEST_SUPPORT = internal/oracle internal/obs/promtest internal/cow/cowtest internal/faultfs internal/faultnet

size:
	@total=$$($(GO_FILES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l); \
	support=$$(find $(TEST_SUPPORT) -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l); \
	echo "non-test Go lines: $$total"; \
	echo "test-support non-test lines: $$support ($(TEST_SUPPORT))"; \
	echo "production lines:  $$((total - support))"
	@echo "test Go lines:     $$($(GO_FILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "packages:          $$($(GO) list ./... | wc -l)"
	@echo "internal/obs non-test lines: $$(find internal/obs -name '*.go' -not -name '*_test.go' -not -path 'internal/obs/promtest/*' -print0 | xargs -0 cat | wc -l)"

# clean removes what building, profiling and benchmarking leave behind, all of
# it untracked; the recorded BENCH_BASELINE.json is part of the repository.
clean:
	rm -f *.prof *.test
	rm -rf .bench_build
