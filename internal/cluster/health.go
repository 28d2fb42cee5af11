package cluster

import (
	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/simnet"
)

// This file wires the failure detector (internal/health) into the
// two-layer system. Under a detector profile (LAN), every peer runs a
// last-activity detector over its subgroup co-members on the virtual
// clock (health's stock thresholds: Suspect after 2 heartbeat intervals
// of silence, Down after 3), fed by simnet message deliveries. Watch sets follow Raft's
// traffic asymmetry — a follower can only judge its leader (the one
// node that talks on a quiet group), while a leader judges everyone via
// AppendResponses. Verdicts drive recovery proactively instead of
// waiting for election timeouts:
//
//   - A follower whose detector declares the subgroup leader Down
//     campaigns after a rank-staggered delay (rank among live
//     co-members × 2·latency, so vote splits are avoided and the
//     lowest-id detector moves first), unless another node's campaign
//     already bumped the term.
//   - A peer re-elected subgroup leader whose FedAvg-layer node is
//     still down revives it automatically when the layer has no leader
//     (the ReviveFedNode disaster path, previously manual).

// HealthTransition is one detector verdict with its cluster context.
type HealthTransition struct {
	health.Transition
	// Owner is the peer whose detector issued the verdict.
	Owner uint64
	// Subgroup is the owner's subgroup.
	Subgroup int
	// ShadowGapUs is the silence gap measured against the cluster's own
	// delivery ledger at verdict time — an accounting of actual simnet
	// deliveries independent of the detector's bookkeeping. Invariant
	// checkers compare it with ThresholdUs: a Down verdict with
	// ShadowGapUs < ThresholdUs would mean the detector declared a peer
	// dead while its messages were arriving within threshold.
	ShadowGapUs int64
}

// HealthTransitions returns every detector verdict so far, in emission
// order.
func (s *System) HealthTransitions() []HealthTransition {
	return append([]HealthTransition(nil), s.healthTrans...)
}

// setupDetector builds peer p's detector over its subgroup co-members.
// The watch set starts empty: before a first leader exists nobody emits
// regular traffic, so there is no one to legitimately judge.
func (s *System) setupDetector(p *Peer, members []uint64) error {
	var others []uint64
	for _, id := range members {
		if id != p.ID {
			others = append(others, id)
		}
	}
	det, err := health.New(others, health.Options{
		TickIntervalUs: int64(s.opts.HeartbeatTick) * int64(simnet.Millisecond),
		Clock:          func() int64 { return int64(s.Sim.Now()) },
		OnTransition:   func(tr health.Transition) { s.onHealthTransition(p, tr) },
		Telemetry:      s.opts.Telemetry,
		Owner:          p.ID,
	})
	if err != nil {
		return err
	}
	det.SetWatch(nil)
	p.det = det
	p.subHost.OnMessage = func(m raft.Message) {
		s.noteSeen(p.ID, m.From)
		det.Observe(m.From)
	}
	s.scheduleDetectorTick(p)
	return nil
}

// scheduleDetectorTick drives p's detector at the heartbeat cadence on
// the virtual clock. The loop stops while the peer is down and is
// re-armed by RestartPeer.
func (s *System) scheduleDetectorTick(p *Peer) {
	if p.detLoop {
		return
	}
	p.detLoop = true
	interval := simnet.Duration(s.opts.HeartbeatTick) * simnet.Millisecond
	var loop func()
	loop = func() {
		if p.Down() {
			p.detLoop = false
			return
		}
		p.det.Tick()
		s.Sim.Schedule(interval, loop)
	}
	s.Sim.Schedule(interval, loop)
}

// updateWatch aligns p's watch set with its raft role in its subgroup
// (health.WatchSet).
func (s *System) updateWatch(p *Peer, st raft.State, leader uint64) {
	p.det.SetWatch(health.WatchSet(st == raft.Leader, p.ID, leader, s.bySub[p.Subgroup]))
}

func (s *System) noteSeen(owner, peer uint64) {
	m := s.lastSeen[owner]
	if m == nil {
		m = make(map[uint64]simnet.Time)
		s.lastSeen[owner] = m
	}
	m[peer] = s.Sim.Now()
}

// onHealthTransition records the verdict and, for a Down verdict about
// the owner's current subgroup leader, schedules a proactive campaign.
func (s *System) onHealthTransition(p *Peer, tr health.Transition) {
	shadow := int64(s.Sim.Now()) - int64(s.lastSeen[p.ID][tr.Peer])
	s.healthTrans = append(s.healthTrans, HealthTransition{
		Transition: tr, Owner: p.ID, Subgroup: p.Subgroup, ShadowGapUs: shadow,
	})
	if tr.To != health.Down || p.Down() || p.subHost.Node.Leader() != tr.Peer {
		return
	}
	// Stagger by rank so concurrent verdicts don't split the vote, and
	// capture the term so a campaign that already happened (it would
	// have bumped the term via its vote requests) cancels ours.
	term := p.subHost.Node.Term()
	delay := simnet.Duration(s.campaignRank(p, tr.Peer)) * 2 * s.opts.Latency
	s.Sim.Schedule(delay, func() {
		if p.Down() {
			return
		}
		n := p.subHost.Node
		if n.Term() != term || n.State() == raft.Leader {
			return
		}
		if st, ok := p.det.State(tr.Peer); !ok || st != health.Down {
			return // the leader came back within the stagger window
		}
		s.record(EvProactiveCampaign, p.ID, p.Subgroup)
		_ = p.subHost.Campaign() // a store error has crashed the host
	})
}

// campaignRank is p's index among its live subgroup co-members
// (ascending id, the dead leader excluded) — the stagger slot for a
// proactive campaign.
func (s *System) campaignRank(p *Peer, dead uint64) int {
	rank := 0
	for _, id := range s.bySub[p.Subgroup] {
		if id == p.ID {
			break
		}
		if id != dead && !s.peers[id].Down() {
			rank++
		}
	}
	return rank
}

// DegradedSubgroups returns the subgroups that currently lack a live
// Raft quorum, ascending. The churn and shard oracles read it when they
// settle a round boundary: on a calm network every subgroup must have
// one.
func (s *System) DegradedSubgroups() []int {
	var out []int
	for g, ids := range s.bySub {
		if len(ids) == 0 {
			// A retired slot (its members merged into a sibling) has no
			// quorum to lack.
			continue
		}
		live := 0
		for _, id := range ids {
			if !s.peers[id].Down() {
				live++
			}
		}
		if live < len(ids)/2+1 {
			out = append(out, g)
		}
	}
	return out
}

// DetectorsConverged reports whether no live peer currently holds a
// Suspect/Down verdict about a live peer. Verdicts about genuinely
// crashed peers are true positives and do not block convergence. Chaos
// campaigns use this as the detector re-convergence predicate after
// faults stop.
func (s *System) DetectorsConverged() bool {
	for _, id := range s.PeerIDs() {
		p := s.peers[id]
		if p.det == nil || p.Down() {
			continue
		}
		for _, st := range p.det.Snapshot() {
			if !st.Watched || st.State == health.Up.String() {
				continue
			}
			if target := s.peers[st.Peer]; target != nil && !target.Down() {
				return false
			}
		}
	}
	return true
}
