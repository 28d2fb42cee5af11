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

.PHONY: all build vet test race chaos-smoke check bench-check test-telemetry test-health test-wire test-byzantine test-compress test-wan test-churn test-scale test-compose test-node

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The wan line starts at seed 16: the paper-profile control counts
# spurious elections on seeds 16, 17, 19 and 20 only, and a sweep whose
# control stays at zero exits 1.
race:
	$(GO) test -race ./...
	$(GO) run -race ./cmd/p2pfl-chaos -seed 1 -soak 10s
	$(GO) run -race ./cmd/p2pfl-chaos -seed 1 -target two-layer -steps 12
	$(GO) run -race ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix flap -profile lan -steps 12
	$(GO) run -race ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix byzantine -n 4 -steps 12
	$(GO) run -race ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix churn -steps 12
	$(GO) run -race ./cmd/p2pfl-chaos -track wan -seed 16 -seeds 5
	$(GO) run -race ./cmd/p2pfl-chaos -track churn -seeds 5
	$(GO) run -race ./cmd/p2pfl-chaos -track shard -seeds 3

# 30-second deterministic chaos sweep. The start seed is pinned so CI
# failures reproduce locally: any red seed reruns exactly with
#   go run ./cmd/p2pfl-chaos -seed <seed> [-target two-layer -mix flap -profile lan]
chaos-smoke:
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -soak 30s
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -target two-layer -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix flap -profile lan -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix byzantine -n 4 -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -track byzantine -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -target two-layer -topology wan50 -profile wan -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 1 -target two-layer -mix churn -steps 12
	$(GO) run ./cmd/p2pfl-chaos -seed 19 -target two-layer -topology wan50 -mix churn -n 4
	$(GO) run ./cmd/p2pfl-chaos -track shard -seeds 3
	$(GO) run ./cmd/p2pfl-chaos -track churn -seeds 3
	$(GO) run ./cmd/p2pfl-chaos -track compose -seeds 1

# The composition sweep at full width: 20 seeds × 60 two-layer campaigns
# (3 profiles × {uniform, wan50} × {mixed, flap, churn, crash,
# partition} × n ∈ {3, 4}) = 1,200, under a minute on 2 vCPUs (it was
# two and a quarter while a raft leader resent in-flight entries on
# every ack, which stormed the wan50 cells).
# chaos-smoke runs its first seed. A red cell prints its report and the
# flags that rerun it alone; -v prints every cell. The cell that elected two leaders in one term before
# raft admitted one configuration change at a time — seed 11, paper,
# wan50, churn, n = 4 — is also a go test
# (TestSeed11OverlappingMembershipChanges), and so is the cell whose new
# subgroup leader polled forever for the FedAvg leader before followers
# redirected it — seed 19, same flags — with a chaos-smoke line
# (TestSeed19JoinerFindsTheFedAvgLeader).
test-compose:
	$(GO) run ./cmd/p2pfl-chaos -track compose -seeds 20

# The nine test-* targets below are the per-subsystem suites: every
# package that implements or consumes the subsystem, in full, under
# -race, plus the p2pfl-chaos track that sweeps it where there is one.

# A raft member's loop: raft.Loop (the one body that persists, sends,
# applies and reports, in that order), its virtual-clock owner
# simnet.Host (a host whose store fails sends nothing and goes down;
# the tick blocks that run back-to-back ticks of an instant as one event),
# the cluster package that consumes both and runs the golden timelines
# (TestVirtualTimelinesAreByteIdentical), and its wall-clock owner, the
# daemon — not -short, so TestKillNineAndRejoin builds p2pfl-node and
# kill -9s a real leader on loopback.
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
# counting/determinism regressions, and the /debug/telemetry schema
# golden.
test-telemetry:
	$(GO) test -race ./internal/telemetry/ ./cmd/p2pfl-node/ ./cmd/p2pfl-benchjson/ \
		./internal/transport/ ./internal/cluster/ \
		./internal/chaos/ ./cmd/p2pfl-sim/

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
# goroutines, TestSpareWorkingSetsServeTwoGoroutines).
test-wire:
	$(GO) test -race ./internal/wire/ ./internal/transport/ \
		./internal/secretshare/ ./internal/sac/ ./internal/simnet/ \
		./cmd/p2pfl-node/

# Compression: the quantize/top-k kernels (bit determinism at any worker
# count, error bounds, the top-k selection against its sort-based
# reference and allocation budget), the wire delta blocks (and the
# hostile sparse dimension), core.node's compressed FedAvg legs — a
# subgroup leader's upload, the FedAvg leader's one encoding of the
# global model — and the closed-form byte accounting cross-checks
# (DESIGN.md §12).
test-compress:
	$(GO) test -race ./internal/compress/ ./internal/secretshare/ \
		./internal/wire/ ./internal/core/ ./internal/costmodel/

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
# (DESIGN.md §15). The tier table also prints standalone via
#   go run ./cmd/p2pfl-bench -multilayer
test-scale:
	$(GO) test -race -short ./internal/core/ ./internal/cluster/ \
		./internal/chaos/ ./internal/costmodel/
	$(GO) test ./internal/core/
	$(GO) run ./cmd/p2pfl-bench -multilayer
	$(GO) run ./cmd/p2pfl-chaos -track shard -seeds 12

# Byzantine adversaries: robust SAC aggregation (each sac.Peer's range
# guard, subtotal cross-check and leader audit, and who may send a
# collector what), its core-layer integration, the robust rules of
# internal/fl (CoordinateMedian is the cross-check's combiner), the seeds
# of both SAC fuzz targets (FuzzHandleMessage through the mesh,
# FuzzPeerStep straight into Peer.Step at every point of a round) and of
# FuzzNodeStep (forged FedAvg-layer messages into core.node.Step), and
# the chaos oracle's 20-seed deterministic sweep with the plain-mean
# sharpness contrast (DESIGN.md §11).
test-byzantine:
	$(GO) test -race ./internal/sac/ ./internal/core/ ./internal/fl/ ./internal/chaos/
	$(GO) test -race -run 'Fuzz' ./internal/sac/
	$(GO) test -race -run 'Fuzz' ./internal/core/
	$(GO) run -race ./cmd/p2pfl-chaos -track byzantine -seeds 20

check: vet build test race chaos-smoke
