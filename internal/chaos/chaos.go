// Package chaos is a deterministic, seed-replayable fault-campaign
// engine for the protocols in this repository. A Campaign expands a seed
// into a randomized schedule of crashes, restarts, leader kills,
// partitions, message black-holes, loss and delay bursts, executes it
// against the virtual-clock simulator (internal/simnet) while a set of
// invariant checkers watch every transition, and renders a verdict:
//
//	Raft election safety    at most one leader per term, per group
//	Log matching            same (index, term) ⇒ same entry, everywhere
//	Commit safety           a committed index never changes content
//	Commit monotonicity     a node's commit index never regresses
//	State-machine agreement replicated kvstores converge to equal state
//	SAC exactness           recovered k-out-of-n sums equal the plaintext
//	                        sum whenever ≥ k shares survive
//	SAC privacy             no single peer observes all n shares of
//	                        another peer's model (k ≥ 2)
//	Liveness                after the schedule quiesces, a leader emerges
//	                        and a round/entry commits within a bound
//	Health accuracy         no failure detector declares a peer Down
//	                        whose messages were delivered within the
//	                        silence threshold (detector profiles)
//	Health re-convergence   after the last fault lifts, every live
//	                        detector returns to all-Up verdicts about
//	                        live peers within a bound
//
// The Byzantine adversary track (Campaign.ByzantineRounds, see byzantine.go)
// adds four more, checked against seed-derived adversary plans with
// f = 1 < n/3 marked peers per subgroup:
//
//	Byzantine robustness    guarded aggregation stays within a fixed
//	                        tolerance of the equal-seed clean baseline
//	Byzantine detection     forged shares are excluded, lying subtotal
//	                        copies are counted as mismatches, honest
//	                        peers are never falsely flagged
//	Equivocation detection  a leader announcing divergent results is
//	                        convicted by the audit; its subgroup is
//	                        dropped from the round
//	Coalition privacy       the adversary coalition never observes all
//	                        n share indices of an honest peer's model
//	Sharpness               the same campaign re-run under plain-mean
//	                        (unguarded) aggregation must violate the
//	                        tolerance — proof the checkers can fail
//
// The continuous-churn track (ActChurn actions on TargetTwoLayer plus
// Campaign.ChurnRounds oracle episodes, which drive a cluster of their
// own through AddPeer/DepartPeer at round boundaries, see
// churnoracle.go) adds three more; Campaign.ShardRounds episodes
// (shardoracle.go) hold cluster.Rebalance to the same three:
//
//	Directory convergence   after quiesce and at every oracle round
//	                        boundary, every live FedAvg-layer directory
//	                        replica holds identical state and it matches
//	                        the admitted membership exactly
//	Share-index soundness   membership changes never assign duplicate
//	                        share indices within a subgroup, and each
//	                        round's k-of-n geometry covers all shares
//	Churn accuracy          training curves under mid-training
//	                        join/leave stay within a fixed tolerance of
//	                        the equal-seed fixed-membership baseline
//
// Everything is derived from Campaign.Seed through dedicated rand
// streams and runs on one goroutine under virtual time, so the same seed
// always produces the identical schedule, the identical execution and
// the identical verdict — a red run is reproduced exactly by replaying
// its schedule (see WriteReplay/LoadReplay), and Minimize shrinks a
// failing schedule to a near-minimal one by bisection.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Target selects the system a campaign drives.
type Target string

// Campaign targets.
const (
	// TargetRaftKV drives one raft group replicating a key-value store —
	// the sharpest lens on the consensus substrate's safety properties.
	TargetRaftKV Target = "raft-kv"
	// TargetTwoLayer drives the paper's two-layer Raft (internal/cluster)
	// and finishes with a full two-layer SAC aggregation round using the
	// leaders the chaos left behind.
	TargetTwoLayer Target = "two-layer"
)

// ActionKind enumerates fault types.
type ActionKind string

// Fault kinds. Each action is self-contained so schedules can be
// reordered and subsets re-executed by the minimizer.
const (
	// ActCrash fail-stops one live node.
	ActCrash ActionKind = "crash"
	// ActRestart revives one crashed node from its persisted state.
	ActRestart ActionKind = "restart"
	// ActLeaderKill fail-stops whichever node currently leads.
	ActLeaderKill ActionKind = "leader-kill"
	// ActPartition splits the network into two sides.
	ActPartition ActionKind = "partition"
	// ActBlackhole silently drops all messages sent by one node.
	ActBlackhole ActionKind = "blackhole"
	// ActLoss sets a uniform message-loss probability.
	ActLoss ActionKind = "loss"
	// ActDelay sets a uniform message-delay jitter bound.
	ActDelay ActionKind = "delay"
	// ActHeal removes all network faults (partitions, black-holes, loss,
	// delay). Crashed nodes stay crashed until ActRestart.
	ActHeal ActionKind = "heal"
	// ActFlap flaps one node's outbound links: its messages are black-
	// holed and released in several short cycles. Flapping is the
	// sharpest test of a failure detector — each dark window can exceed
	// the silence threshold (a true Down), and each recovery must be
	// observed as such, never condemned retroactively.
	ActFlap ActionKind = "flap"
	// ActByzantine marks one peer of the targeted subgroup as an active
	// adversary (Action.Behavior selects the attack, see sac.Behavior).
	// The mark persists for the campaign: the post-quiesce aggregation
	// round runs the marked peers' attacks against the robust (guarded,
	// median-combined) protocol. At most one peer per subgroup turns —
	// the guard's honest-majority precondition with 3-way replication —
	// and only subgroups of ≥ 4 peers can host one (f < n/3).
	ActByzantine ActionKind = "byzantine"
	// ActChurn fires one continuous-churn control-plane operation on the
	// targeted subgroup: Rank selects between admitting a brand-new peer
	// (cluster.AddPeer), gracefully departing a member (DepartPeer, with
	// model handoff and directory leave) and a same-identity handoff
	// (ReplacePeer: persisted raft state + model transferred to a
	// successor process). Two-layer target only; a no-op on raft-kv.
	ActChurn ActionKind = "churn"
)

// Action is one scheduled fault. Node-targeting actions carry a rank, not
// an ID: the executor resolves `Rank mod len(candidates)` against the
// sorted candidate set (live nodes for a crash, down nodes for a restart)
// at execution time, so an action generated without knowledge of the
// future state is always meaningful and the whole schedule stays
// deterministic under minimization.
type Action struct {
	// Step orders the action; it executes at (Step+1)·StepEvery.
	Step int `json:"step"`
	// Kind is the fault type.
	Kind ActionKind `json:"kind"`
	// Rank selects the target node among the sorted candidates.
	Rank int `json:"rank,omitempty"`
	// Side is a bitmask over sorted node positions choosing partition
	// membership (bit i set ⇒ node i on side A).
	Side uint64 `json:"side,omitempty"`
	// Rate is the loss probability for ActLoss.
	Rate float64 `json:"rate,omitempty"`
	// DelayUs is the jitter bound in virtual microseconds for ActDelay.
	DelayUs int64 `json:"delay_us,omitempty"`
	// Group selects the sub-network on TargetTwoLayer: 0..m−1 is a
	// subgroup, m is the FedAvg layer. Ignored by TargetRaftKV.
	Group int `json:"group,omitempty"`
	// Behavior is the adversarial strategy for ActByzantine (a
	// sac.Behavior string; empty defaults to inflate-subtotal).
	Behavior string `json:"behavior,omitempty"`
}

// FaultMix weights the fault kinds during schedule generation. Zero
// weights exclude a kind; the zero value of the whole struct falls back
// to DefaultMix.
type FaultMix struct {
	Crash      int `json:"crash"`
	Restart    int `json:"restart"`
	LeaderKill int `json:"leader_kill"`
	Partition  int `json:"partition"`
	Blackhole  int `json:"blackhole"`
	Loss       int `json:"loss"`
	Delay      int `json:"delay"`
	Heal       int `json:"heal"`
	Flap       int `json:"flap,omitempty"`
	Byzantine  int `json:"byzantine,omitempty"`
	Churn      int `json:"churn,omitempty"`
}

// DefaultMix is a balanced fault mix.
var DefaultMix = FaultMix{Crash: 3, Restart: 3, LeaderKill: 2, Partition: 2, Blackhole: 1, Loss: 1, Delay: 1, Heal: 3}

// CrashHeavyMix emphasizes fail-stop faults.
var CrashHeavyMix = FaultMix{Crash: 5, Restart: 5, LeaderKill: 3, Heal: 1}

// PartitionHeavyMix emphasizes network faults.
var PartitionHeavyMix = FaultMix{Partition: 5, Blackhole: 2, Loss: 2, Delay: 2, Heal: 4, Crash: 1, Restart: 1}

// FlappingMix emphasizes flapping links, slow peers and leader kill
// storms — the failure-detector stress profile.
var FlappingMix = FaultMix{Flap: 5, Delay: 3, LeaderKill: 3, Loss: 2, Heal: 2, Crash: 1, Restart: 2}

// ByzantineMix mixes adversarial peers with the crash/heal vocabulary —
// the robust-aggregation stress profile.
var ByzantineMix = FaultMix{Byzantine: 5, Crash: 2, Restart: 3, LeaderKill: 2, Partition: 1, Heal: 3}

// ChurnMix mixes continuous membership churn (joins, graceful
// departures, same-identity handoffs) with crashes and leader kills —
// the control-plane stress profile.
var ChurnMix = FaultMix{Churn: 5, Crash: 2, Restart: 3, LeaderKill: 2, Heal: 3}

func (m FaultMix) total() int {
	return m.Crash + m.Restart + m.LeaderKill + m.Partition + m.Blackhole + m.Loss + m.Delay + m.Heal + m.Flap + m.Byzantine + m.Churn
}

// pick maps a roll in [0, total) to a kind.
func (m FaultMix) pick(roll int) ActionKind {
	for _, kw := range []struct {
		k ActionKind
		w int
	}{
		{ActCrash, m.Crash}, {ActRestart, m.Restart}, {ActLeaderKill, m.LeaderKill},
		{ActPartition, m.Partition}, {ActBlackhole, m.Blackhole},
		{ActLoss, m.Loss}, {ActDelay, m.Delay}, {ActHeal, m.Heal},
		// Appended last so legacy mixes keep their roll mapping.
		{ActFlap, m.Flap}, {ActByzantine, m.Byzantine}, {ActChurn, m.Churn},
	} {
		if roll < kw.w {
			return kw.k
		}
		roll -= kw.w
	}
	return ActHeal // unreachable for roll < total()
}

// Campaign parameterizes one fault campaign. The zero value of every
// optional field has a sensible default (see normalize); Seed alone
// defines the schedule for a given configuration.
type Campaign struct {
	// Seed drives schedule generation and every rng in the world.
	Seed int64 `json:"seed"`
	// Steps is the number of fault actions in the schedule.
	Steps int `json:"steps"`
	// Mix weights the fault kinds (zero value: DefaultMix).
	Mix FaultMix `json:"mix"`
	// Target selects the driven system (default TargetRaftKV).
	Target Target `json:"target"`

	// Nodes is the raft group size for TargetRaftKV (default 5).
	Nodes int `json:"nodes,omitempty"`
	// Subgroups × SubgroupSize shape TargetTwoLayer (default 3×3).
	Subgroups    int `json:"subgroups,omitempty"`
	SubgroupSize int `json:"subgroup_size,omitempty"`

	// ElectionTickMin/Max and HeartbeatTick parameterize raft (defaults
	// 50/100/15 — the paper's smallest healthy setting).
	ElectionTickMin int `json:"election_tick_min,omitempty"`
	ElectionTickMax int `json:"election_tick_max,omitempty"`
	HeartbeatTick   int `json:"heartbeat_tick,omitempty"`
	// LatencyUs is the one-way link latency in virtual microseconds
	// (default 15 ms, as in the paper).
	LatencyUs int64 `json:"latency_us,omitempty"`
	// Topology, when non-empty, names a simnet latency preset ("lan15",
	// "wan50", "wan200") that replaces the uniform LatencyUs delay on
	// every raft network with a multi-region delay matrix plus jitter.
	// Serialized into replay files: a WAN campaign replays as one.
	Topology string `json:"topology,omitempty"`
	// Profile selects the failure-handling policy of every node in the
	// campaign (cluster.Paper, the zero value, is stock paper behaviour).
	// TargetTwoLayer passes it to cluster.Options; the single raft group
	// of TargetRaftKV takes the profile's raft flags only. A detector
	// profile also arms two extra invariant checkers:
	//
	//	health-false-down      no detector may declare a peer Down whose
	//	                       messages were delivered within threshold
	//	                       (checked against the cluster's shadow
	//	                       delivery ledger, an independent data path)
	//	health-reconvergence   after the last fault lifts, every live
	//	                       detector returns to all-Up verdicts about
	//	                       live peers within ReconvergeBoundUs
	Profile cluster.Profile `json:"profile,omitempty"`

	// StepEveryUs spaces fault actions (default 200 ms virtual).
	StepEveryUs int64 `json:"step_every_us,omitempty"`
	// QuiesceTimeoutUs bounds the post-schedule liveness wait (default
	// 60 s virtual).
	QuiesceTimeoutUs int64 `json:"quiesce_timeout_us,omitempty"`
	// SACRounds is the number of SAC exactness/privacy oracle rounds run
	// per campaign (default 3; negative disables).
	SACRounds int `json:"sac_rounds,omitempty"`
	// ByzantineRounds is the number of Byzantine oracle rounds (0 = off;
	// the byzantine track runs 2): seed-derived adversary plans pitted
	// against the robust (guarded) aggregation, with convergence,
	// detection, coalition-privacy and sharpness invariants (see
	// byzantine.go). Arming it also raises the default SubgroupSize to 4
	// so f = 1 < n/3 marks are possible on the two-layer target.
	ByzantineRounds int `json:"byzantine_rounds,omitempty"`
	// ChurnRounds is the number of churn oracle episodes (0 = off; the
	// churn track runs 3). Each bootstraps a cluster.System of its own
	// under this campaign's profile, topology and timers, changes its
	// membership with AddPeer/DepartPeer between rounds and aggregates
	// under the geometry read off it (see churnoracle.go). ActChurn
	// actions in the schedule exercise the control plane under faults on
	// TargetTwoLayer independently of it.
	ChurnRounds int `json:"churn_rounds,omitempty"`
	// ShardRounds is the number of shard oracle episodes (0 = off; the
	// shard track runs 3): the same kind of cluster, grown until
	// cluster.Rebalance splits a subgroup and drained until it merges
	// one, with every round aggregated under the elastic geometry and
	// under a static partition of the same members (see shardoracle.go).
	ShardRounds int `json:"shard_rounds,omitempty"`

	// ReconvergeBoundUs bounds detector re-convergence after quiesce
	// begins (default 30 s virtual).
	ReconvergeBoundUs int64 `json:"reconverge_bound_us,omitempty"`

	// extraCheckers run at every check interval and at quiesce on top of
	// the built-in invariants. It is this package's test seam, not an
	// option: the minimiser and replay tests need a verdict to minimise,
	// and no built-in invariant fails on demand. Never in a replay file —
	// a test that injects a checker re-attaches it after LoadReplay.
	extraCheckers []Checker

	// Telemetry, when non-nil, is threaded into every raft node, the
	// two-layer cluster, and the SAC rounds the campaign runs, with its
	// clock pinned to the campaign's virtual time — so identical seeds
	// yield byte-identical snapshots. It is code, not schedule, and is
	// not serialized into replay files.
	Telemetry *telemetry.Registry `json:"-"`
}

func (c Campaign) normalize() Campaign {
	if c.Steps <= 0 {
		c.Steps = 20
	}
	if c.Mix.total() <= 0 {
		c.Mix = DefaultMix
	}
	if c.Target == "" {
		c.Target = TargetRaftKV
	}
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.Subgroups <= 0 {
		c.Subgroups = 3
	}
	if c.SubgroupSize <= 0 {
		c.SubgroupSize = 3
		if c.ByzantineRounds > 0 {
			c.SubgroupSize = 4 // room for f = 1 < n/3 adversaries
		}
	}
	if c.ElectionTickMin <= 0 {
		c.ElectionTickMin = 50
	}
	if c.ElectionTickMax <= c.ElectionTickMin {
		c.ElectionTickMax = 2 * c.ElectionTickMin
	}
	if c.HeartbeatTick <= 0 {
		c.HeartbeatTick = c.ElectionTickMin / 3
		if c.HeartbeatTick < 1 {
			c.HeartbeatTick = 1
		}
	}
	if c.LatencyUs <= 0 {
		c.LatencyUs = int64(15 * simnet.Millisecond)
	}
	if c.StepEveryUs <= 0 {
		c.StepEveryUs = int64(200 * simnet.Millisecond)
	}
	if c.QuiesceTimeoutUs <= 0 {
		c.QuiesceTimeoutUs = int64(60 * simnet.Second)
	}
	if c.SACRounds == 0 {
		c.SACRounds = 3
	}
	if c.ReconvergeBoundUs <= 0 {
		c.ReconvergeBoundUs = int64(30 * simnet.Second)
	}
	return c
}

// Generate expands the campaign seed into its fault schedule. The
// expansion is a pure function of the (normalized) campaign, so equal
// campaigns always produce equal schedules.
func (c Campaign) Generate() []Action {
	c = c.normalize()
	rng := rand.New(rand.NewSource(c.Seed*7919 + 13))
	total := c.Mix.total()
	actions := make([]Action, 0, c.Steps)
	groups := 1
	if c.Target == TargetTwoLayer {
		groups = c.Subgroups + 1 // m subgroups + the FedAvg layer
	}
	for i := 0; i < c.Steps; i++ {
		a := Action{Step: i, Kind: c.Mix.pick(rng.Intn(total)), Group: rng.Intn(groups)}
		switch a.Kind {
		case ActCrash, ActRestart, ActLeaderKill, ActBlackhole, ActFlap, ActChurn:
			a.Rank = rng.Intn(1 << 16)
		case ActByzantine:
			a.Rank = rng.Intn(1 << 16)
			a.Behavior = string(scheduleBehaviors[rng.Intn(len(scheduleBehaviors))])
		case ActPartition:
			// Random non-trivial bitmask; the executor discards degenerate
			// sides, so any value is acceptable here.
			a.Side = uint64(rng.Int63())
		case ActLoss:
			a.Rate = 0.05 + 0.25*rng.Float64()
		case ActDelay:
			a.DelayUs = int64(simnet.Millisecond) * int64(1+rng.Intn(20))
		}
		actions = append(actions, a)
	}
	return actions
}

// Violation is one invariant breach observed during execution.
type Violation struct {
	// AtUs is the virtual time of the observation in microseconds.
	AtUs int64 `json:"at_us"`
	// Invariant names the breached checker.
	Invariant string `json:"invariant"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%8.1fms] %s: %s", float64(v.AtUs)/1000, v.Invariant, v.Detail)
}

// Stats summarizes what a campaign actually exercised — a schedule in
// which every action was a no-op proves nothing, so the counts are part
// of the report.
type Stats struct {
	Crashes        int   `json:"crashes"`
	Restarts       int   `json:"restarts"`
	Partitions     int   `json:"partitions"`
	NetFaults      int   `json:"net_faults"` // blackhole + loss + delay
	Heals          int   `json:"heals"`
	Flaps          int   `json:"flaps,omitempty"`
	LeaderChanges  int   `json:"leader_changes"`
	Commits        int   `json:"commits"`
	SACRounds      int   `json:"sac_rounds"`
	FinalVirtualMs int64 `json:"final_virtual_ms"`
	// Byzantines counts adversary marks deployed; ByzantineDetections
	// counts guard detections (exclusions, mismatching subtotal copies,
	// equivocation convictions) attributed to them.
	Byzantines          int `json:"byzantines,omitempty"`
	ByzantineDetections int `json:"byzantine_detections,omitempty"`
	// Joins/Departs/Handoffs count completed continuous-churn control-
	// plane operations (ActChurn actions plus the admissions and
	// departures of churn and shard oracle episodes).
	Joins    int `json:"joins,omitempty"`
	Departs  int `json:"departs,omitempty"`
	Handoffs int `json:"handoffs,omitempty"`
	// Splits/Merges count the cluster.ShardActions that cluster.Rebalance
	// executed in shard oracle episodes.
	Splits int `json:"splits,omitempty"`
	Merges int `json:"merges,omitempty"`
}

// Report is the outcome of one executed campaign.
type Report struct {
	Campaign   Campaign    `json:"campaign"`
	Actions    []Action    `json:"actions"`
	Violations []Violation `json:"violations"`
	Stats      Stats       `json:"stats"`
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Run generates the campaign's schedule and executes it.
func (c Campaign) Run() *Report { return c.Execute(c.Generate()) }

// Execute runs an explicit schedule (normally Generate's output, or a
// minimized subset of it) under this campaign's configuration.
func (c Campaign) Execute(actions []Action) *Report {
	n := c.normalize()
	rep := &Report{Campaign: c, Actions: actions}
	if n.Topology != "" {
		if _, err := simnet.Preset(n.Topology); err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Invariant: "config", Detail: err.Error(),
			})
			return rep
		}
	}
	switch n.Target {
	case TargetTwoLayer:
		executeTwoLayer(n, actions, rep)
	default:
		executeRaftKV(n, actions, rep)
	}
	if n.SACRounds > 0 {
		runSACOracle(n, rep)
	}
	if n.ByzantineRounds > 0 {
		runByzantineOracle(n, rep)
	}
	if n.ChurnRounds > 0 {
		runChurnOracle(n, rep)
	}
	if n.ShardRounds > 0 {
		runShardOracle(n, rep)
	}
	return rep
}
