GO ?= go

# `make bench-check` is the micro-benchmark gate, and it only compares
# benchmarks of one run with each other (p2pfl-benchjson -pairs), three
# pairs: an instrumented/nil telemetry pair may cost 5% (RaftTick,
# SACRound) and the async raft TCP sender must keep up with the sync
# one. Three runs are piped in and a pair fails only if it exceeds in
# all three (a single run's ratio moves by ±10% on a shared 2-vCPU
# host). There is no stored
# ns/op baseline — run-to-run drift on a shared host is larger than any
# tolerance worth gating — and exact contracts (bytes on the wire,
# allocation counts) are tests under `go test ./...`. End-to-end
# performance is `bash bench/run.sh` (BENCHMARK.json).
BENCH_PATTERN := 'BenchmarkRaftTick|BenchmarkSACRound|BenchmarkRaftTCPSendHealthyPeer'
BENCH_ARGS := -run '^$$' -bench $(BENCH_PATTERN) -benchmem -benchtime 10x \
	./internal/raft/ ./internal/sac/ ./internal/transport/
TIME_PAIRS := 'RaftTickLive=RaftTickNil,SACRoundLive=SACRoundNil,RaftTCPSendHealthyPeerAsync=RaftTCPSendHealthyPeerSync'

.PHONY: all build vet test size census race chaos-smoke check bench-check test-telemetry test-health test-wire test-byzantine test-compress test-wan test-churn test-scale test-compose test-node test-train test-raft

all: check

# The arm64 lines keep the portable path compiling: off amd64, nn's
# convolution micro-kernels, tensor's matmul kernels and its aggregation
# kernels (whose stream bodies are amd64 assembly) have only their Go
# bodies (DESIGN.md §7).
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn/
	GOARCH=arm64 $(GO) vet ./internal/tensor/
	GOARCH=arm64 $(GO) build ./...

# gofmt -l prints every file whose formatting differs; any output fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Non-test Go lines outside bench/, per package directory and in total,
# then the two subtotals ROADMAP sets targets for: the count ROADMAP's
# size figures quote.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t; \
			i = "./internal/"; cs = n[i "core"] + n[i "sac"]; \
			printf "%7d core + sac (item 1C: <= 2,899)\n", cs; \
			printf "%7d core + sac + cluster + chaos + transport (item 6: 8,401)\n", cs + n[i "cluster"] + n[i "chaos"] + n[i "transport"] }'

# Coverage census, report only and not part of check: which functions of
# the round's packages do the programs never run in full? It builds the
# round benchmark, p2pfl-experiments, p2pfl-chaos and p2pfl-bench with
# -cover into a temporary directory (-coverpkg=./...: with an
# internal/... pattern go1.24 wrote no counter files), runs bench's six
# workloads for a second each, every experiment at CI scale, the
# chaos-smoke tracks with a 10 s soak and the 1k X-layer tier, merges the
# counters and prints each function of CENSUS_PKGS below 100 %. The
# p2pfl-node daemon is not in it. About 2 min on 2 vCPUs.
CENSUS_PKGS := repro/internal/core,repro/internal/sac,repro/internal/cluster
census:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for p in bench cmd/p2pfl-experiments cmd/p2pfl-chaos cmd/p2pfl-bench; do \
		$(GO) build -cover -coverpkg=./... -o "$$dir/$${p##*/}" ./$$p; \
	done; \
	mkdir "$$dir/cov"; export GOCOVERDIR="$$dir/cov"; \
	for w in train agg_mem agg_tcp agg_compress failover xlayer; do \
		"$$dir/bench" -workload $$w -seconds 1 >/dev/null; \
	done; \
	"$$dir/p2pfl-experiments" -exp all >/dev/null; \
	(cd "$$dir" && ./p2pfl-chaos -seed 2 -soak 10s && \
		./p2pfl-chaos -track compose -seeds 1 -steps 12 && \
		./p2pfl-chaos -track byzantine -seed 1 && \
		./p2pfl-chaos -track shard -seeds 3 && \
		./p2pfl-chaos -track churn -seeds 3) >/dev/null; \
	"$$dir/p2pfl-bench" -multilayer -tiers 1k >/dev/null; \
	$(GO) tool covdata func -i "$$dir/cov" -pkg $(CENSUS_PKGS) | awk '$$1 != "total" && $$NF != "100.0%"'

# Each oracle runs once per seed, through its track: the soak's faults
# track runs a campaign on the two-layer cluster and the SAC oracle
# after it, so it starts at seed 2 and the compose line runs seed 1's.
# The compose line's sixty cells at -steps 12 are campaigns under every
# profile, link and mix. The wan line starts at seed 16: the paper-profile control counts
# spurious elections on seeds 16, 17, 19 and 20 only, and a sweep whose
# control stays at zero exits 1.
race:
	$(GO) test -race ./...
	$(GO) run -race ./cmd/p2pfl-chaos -seed 2 -soak 10s
	$(GO) run -race ./cmd/p2pfl-chaos -track compose -seeds 1 -steps 12
	$(GO) run -race ./cmd/p2pfl-chaos -track byzantine -seed 1
	$(GO) run -race ./cmd/p2pfl-chaos -track wan -seed 16 -seeds 5
	$(GO) run -race ./cmd/p2pfl-chaos -track churn -seeds 5
	$(GO) run -race ./cmd/p2pfl-chaos -track shard -seeds 3

# 30-second deterministic chaos sweep: consecutive seeds of campaigns
# on the two-layer cluster, each with the SAC oracle, then one seed of
# each oracle track. The start seeds are pinned so CI failures reproduce
# locally: a red seed prints the flags that rerun it alone, and a red
# schedule also writes a replay file.
chaos-smoke:
	$(GO) run ./cmd/p2pfl-chaos -seed 2 -soak 30s
	$(GO) run ./cmd/p2pfl-chaos -track compose -seeds 1 -steps 12
	$(GO) run ./cmd/p2pfl-chaos -track byzantine -seed 1
	$(GO) run ./cmd/p2pfl-chaos -track shard -seeds 3
	$(GO) run ./cmd/p2pfl-chaos -track churn -seeds 3

# The composition sweep at full width: 20 seeds × 60 two-layer campaigns
# (3 profiles × {uniform, wan50} × {mixed, flap, churn, crash,
# partition} × n ∈ {3, 4}) = 1,200, then per seed the churn oracle once
# per profile and link and the SAC oracle once, under a minute on 2
# vCPUs (it was two and a quarter while a raft leader resent in-flight
# entries on every ack, which stormed the wan50 cells). Seed 1's cells
# are also a go test (TestVirtualTimelinesAreByteIdentical). A red cell
# prints its report and the flags that rerun it alone; -v prints every
# cell. The cell that elected two leaders in one term before raft
# admitted one configuration change at a time — seed 11, paper, wan50,
# churn, n = 4 — is also a go test
# (TestSeed11OverlappingMembershipChanges), and so is the cell whose new
# subgroup leader polled forever for the FedAvg leader before followers
# redirected it — seed 19, same flags
# (TestSeed19JoinerFindsTheFedAvgLeader).
test-compose:
	$(GO) run ./cmd/p2pfl-chaos -track compose -seeds 20

# Raft's safety over every schedule of three nodes and a spare within
# the exhaustive checker's deeper bounds — two messages in flight,
# duplication and crashes on, up to term 3 and log index 2 (14.6M
# states, ~3 min on 2 vCPUs), then up to term 2 and log index 3 (34.4M
# states, ~7 min, 1.2 GB) — after the short bound `go test` runs
# (internal/raft/check_deep_test.go, build tag raftdeep). Each logs the
# states it explored; a red state prints the shortest schedule that
# reaches it.
test-raft:
	$(GO) test -tags raftdeep -run 'TestEvery(Deeper|Small)ScheduleIsSafe' -count=1 -timeout 60m -v ./internal/raft/

# The ten test-* targets below are the per-subsystem suites: every
# package that implements or consumes the subsystem, in full, under
# -race, plus the p2pfl-chaos track that sweeps it where there is one.

# Local training: the tensor kernels (every matmul against the naive
# triple loop bit for bit, zeros against ±Inf and NaN included, at worker
# budgets 1 and 4), the nn layers (direct convolutions against the
# im2col oracle, branch-free ReLU and max-pool against their branchy
# references, the SHA-256-pinned training trajectories of
# TestTrainingTrajectoriesAreGolden), Adam, and the fl clients and
# trainer that run them (DESIGN.md §7). The convolution tests run on
# both bodies of the micro-kernels, Go and AVX2 (the AVX2 runs skip on
# a CPU without it), and TestAVX2BodiesMatchGoBodies holds the two
# bodies to the same bits on NaN, ±Inf, ±0 and subnormal inputs.
test-train:
	$(GO) test -race ./internal/tensor/ ./internal/nn/ ./internal/optim/ ./internal/fl/

# A raft member's loop: raft.Loop (the one body that persists, sends,
# applies and reports, in that order, and that allocates nothing for a
# settled heartbeat exchange —
# TestSettledGroupAllocatesNothingPerHeartbeat), its virtual-clock owner
# simnet.Host (a host whose store fails sends nothing and goes down;
# the tick blocks that run back-to-back ticks of an instant as one event),
# the cluster package that consumes both and runs the golden timelines
# (TestVirtualTimelinesAreByteIdentical), and its wall-clock owner, the
# daemon — not -short, so TestKillNineAndRejoin builds p2pfl-node and
# kill -9s a real leader on loopback; its per-peer sender goroutines
# encode appends whose entries are views of a log the loop goes on
# appending to.
test-node:
	$(GO) test -race ./internal/raft/ ./internal/simnet/ ./internal/cluster/ ./cmd/p2pfl-node/

# WAN profile: latency topologies, the raft pre-vote/check-quorum
# safety tests, the RTT-driven timeout tuner, the WAN-tuned cluster
# failover bound, and the 20-seed WAN stability sweep with its
# paper-profile spurious-election control (DESIGN.md §13).
test-wan:
	$(GO) test -race ./internal/simnet/ ./internal/health/ ./internal/raft/ \
		./internal/cluster/ ./internal/chaos/ ./cmd/p2pfl-node/
	$(GO) run -race ./cmd/p2pfl-chaos -track wan -seeds 20

bench-check:
	for run in 1 2 3; do $(GO) test $(BENCH_ARGS); done | $(GO) run ./cmd/p2pfl-benchjson -pairs $(TIME_PAIRS) -pair-tolerance 0.05

# Telemetry exposition: the registry package, the wired subsystems'
# counting/determinism regressions (the recovery figures' same-seed
# dump, which p2pfl-experiments -telemetry writes, among them), and the
# /debug/telemetry schema golden.
test-telemetry:
	$(GO) test -race ./internal/telemetry/ ./cmd/p2pfl-node/ ./cmd/p2pfl-benchjson/ \
		./internal/transport/ ./internal/cluster/ \
		./internal/chaos/ ./internal/experiments/

# Self-healing: the failure detector, the resilient transport (circuit
# breakers, head-of-line regression), and the cluster/chaos/core
# recovery paths that consume their verdicts.
test-health:
	$(GO) test -race ./internal/health/ ./internal/transport/ \
		./internal/cluster/ ./internal/chaos/ ./internal/core/

# Wire codec: the codec itself (golden files, fuzz corpus regressions,
# truncation/corruption rejection, hostile frames, the streaming mesh
# codec's differential and allocation-bound tests and its forced
# portable path), the daemon's durable raft-state file (atomic replace,
# log recovery, foreign-format rejection; persist-before-send lives in
# raft.Loop.Pump, internal/raft/loop.go, and TestLogRecovery runs the
# file under it on a simnet.Group — `make test-node` is its suite), the
# transports that frame with it (TCPMesh concurrent senders, a foreign
# frame kind closing the connection on its header, receive-vector
# recycling and its free-list bound, stated on what is outstanding and
# driven by sac.Run in TestTCPMeshFreeListCoversASACTurn — race builds
# poison recycled vectors), and the SAC tests
# that share its pooled buffers (scratch determinism, TCP-vs-memory
# bit-identity across rounds, sac.Run and its Peers against the
# self-contained all-peers reference engine of reference_test.go in
# TestStreamingFoldMatchesReference, and the default path's allocation
# pin in
# TestDefaultRunAllocatesOnlyItsResult and, for the spare list under two
# goroutines, TestSpareWorkingSetsServeTwoGoroutines), the aggregation
# kernels that secretshare, sac and fl call in internal/tensor — the
# Divide, subtotal, average and FedAvg loops, whose stream bodies
# (TestStreamBodiesMatchGo) are amd64 assembly and Go-only elsewhere —
# with fl's FedAvg at a dim long enough to stream, and core's two-layer
# round, which lends Finish and FedAvg the vectors its System keeps: a
# warm round allocates no model vector
# (TestWarmRoundAllocatesNoModelVector).
test-wire:
	$(GO) test -race ./internal/wire/ ./internal/transport/ \
		./internal/secretshare/ ./internal/sac/ ./internal/simnet/ \
		./internal/tensor/ ./internal/fl/ ./internal/core/ ./cmd/p2pfl-node/

# Compression: the quantize/top-k kernels (bit determinism at any worker
# count, error bounds, the top-k selection against its sort-based
# reference and allocation budget, and CompressInto into a lent block,
# which allocates no block and hands the selection exactly k slots —
# TestCompressIntoALentBlock), the wire delta blocks (and the hostile
# sparse dimension), core.node's compressed FedAvg legs — a subgroup
# leader's upload, the FedAvg leader's one encoding of the global model,
# each into a block the System keeps, so a warm round of every scheme
# allocates none (TestWarmRoundAllocatesNoModelVector's quant8, top-k
# and top-k quant16 rows) — fl's AggregateInto, and the closed-form byte
# accounting cross-checks (DESIGN.md §12).
test-compress:
	$(GO) test -race ./internal/compress/ ./internal/secretshare/ \
		./internal/wire/ ./internal/core/ ./internal/fl/ ./internal/costmodel/

# Continuous churn: the replicated directory state machine, the cluster
# join/depart/handoff control plane (one asker, one step driver), raft's
# one-configuration-change-at-a-time gate, the departed-peer teardown
# paths (detector Forget, raft ConfChange × snapshot × restart), the core
# reconfiguration seam, the closed-form
# directory/handoff byte accounting, and the chaos churn track with its
# 20-seed acceptance sweep (DESIGN.md §14).
test-churn:
	$(GO) test -race ./internal/directory/ ./internal/cluster/ ./internal/chaos/ \
		./internal/transport/ ./internal/health/ ./internal/raft/ \
		./internal/core/ ./internal/costmodel/
	$(GO) run -race ./cmd/p2pfl-chaos -track churn -seeds 20

# Massive scale: the X-layer engine's scale tiers, bit-identity at any
# budget and the fan-out allocation bound under -race (short mode caps
# the tier sweep at 2k peers),
# the elastic split/merge control plane and its chaos oracle, then the
# core package again without -race or -short for the full 1k/10k/100k
# tier sweep, and the real-aggregation byte cross-check against Eq. 10
# (DESIGN.md §15), and the calculator command that prints the tier table
# standalone (its usage checks included) via
#   go run ./cmd/p2pfl-bench -multilayer
test-scale:
	$(GO) test -race -short ./internal/core/ ./internal/cluster/ \
		./internal/chaos/ ./internal/costmodel/ ./cmd/p2pfl-bench/
	$(GO) test ./internal/core/
	$(GO) run ./cmd/p2pfl-bench -multilayer
	$(GO) run ./cmd/p2pfl-chaos -track shard -seeds 12

# Byzantine adversaries: robust SAC aggregation (sac.Guard, one defence
# with one field, its share bound: each sac.Peer's range screening, whose
# accusations, read at the seal of a guarded round, drop the accused at
# every peer, the subtotal cross-check and the leader audit, all armed
# together; and who may send a collector what), its core-layer integration, the robust rules of
# internal/fl (CoordinateMedian is the cross-check's combiner, whose
# AggregateInto writes each index's median into the audit claims the
# leader keeps, so a warm guarded round allocates no model vector —
# TestWarmRoundAllocatesNoModelVector's guarded row), the seeds
# of both SAC fuzz targets (FuzzHandleMessage through the mesh,
# FuzzPeerStep straight into Peer.Step at every point of a round) and of
# FuzzNodeStep (forged messages of both layers into core.node.Step at
# every point of a whole round), 15 s of real fuzzing each for the peer
# and the node (each new interesting input minimised for 1 s at most, so
# the run keeps fuzzing instead of minimising), and the chaos oracle's 20-seed deterministic sweep with
# the plain-mean sharpness contrast (DESIGN.md §11).
test-byzantine:
	$(GO) test -race ./internal/sac/ ./internal/core/ ./internal/fl/ ./internal/chaos/
	$(GO) test -race -run 'Fuzz' ./internal/sac/
	$(GO) test -race -run 'Fuzz' ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzNodeStep$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerStep$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/sac/
	$(GO) run -race ./cmd/p2pfl-chaos -track byzantine -seeds 20

check: vet build test race chaos-smoke
