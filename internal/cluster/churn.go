package cluster

// This file is the continuous-churn control plane (DESIGN.md §14): a
// replicated peer directory on the FedAvg-layer Raft log, mid-training
// join/leave, and graceful handoff.
//
//   - Directory. Every FedAvg-layer node applies committed directory
//     entries (wire.KindDirectory frames proposed as ordinary log data)
//     to its own directory.Directory replica. All replicas start from
//     the same bootstrap seed (the initial membership, configuration
//     exactly like raft's initial Peers list), so equal logs yield
//     equal directories; the chaos directory-convergence invariant
//     compares replica checksums.
//   - Join (AddPeer). A new peer's raft node is created with the
//     current subgroup membership and admitted in two committed steps:
//     a subgroup ConfChange{Add:true} proposed through the subgroup
//     leader, then a directory join proposed through the FedAvg leader.
//     The directory assigns the share index deterministically (lowest
//     free slot), which reassigns the subgroup's secretshare slots for
//     the NEXT SAC round — never mid-round, because rounds read the
//     directory once at start.
//   - Leave (DepartPeer). A departing peer first hands its model to a
//     co-member for safekeeping (checkpoint wire kind), then its
//     directory leave commits, then its subgroup (and, for a FedAvg
//     member, FedAvg-layer) ConfChange{Add:false} commits, and finally
//     its hosts are removed and every co-member detector forgets it.
//     Crashed peers may also depart (no handoff); mid-round failures
//     keep using the existing degraded-round/recovery paths.
//   - Handoff (ReplacePeer). A replaced peer transfers its persisted
//     raft state and its model — raft-state and checkpoint wire frames,
//     decoded on arrival — to a successor process that resumes the same
//     logical node (simnet.Host.RestartFrom) without retraining and
//     with zero lost training rounds.

import (
	"bytes"
	"fmt"

	"repro/internal/directory"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Churn event kinds, recorded on the same timeline as the recovery
// events in cluster.go.
const (
	// EvPeerJoined: a new peer's admission completed — its subgroup
	// membership change and directory join both committed.
	EvPeerJoined EventKind = "peer-joined"
	// EvPeerDeparted: a peer's departure completed — directory leave and
	// membership removals committed, hosts removed, detectors scrubbed.
	EvPeerDeparted EventKind = "peer-departed"
	// EvHandoff: a peer's persisted state and model were transferred to
	// a successor (graceful handoff).
	EvHandoff EventKind = "handoff"
)

// peerAddr is the synthetic dialable address registered for a peer in
// the directory (the simulator has no real sockets; live deployments
// would register their transport address here).
func peerAddr(id uint64) string { return fmt.Sprintf("peer-%d:7100", id) }

// Model returns the peer's local model vector (nil until SetModel).
func (p *Peer) Model() []float64 { return p.model }

// SetModel installs the peer's local model vector — the state a
// graceful handoff transfers.
func (p *Peer) SetModel(w []float64) { p.model = append(p.model[:0:0], w...) }

// Inherited returns the model checkpoint this peer received from a
// gracefully departing co-member, or nil.
func (p *Peer) Inherited() []float64 { return p.inherited }

// Departing reports whether the peer's graceful departure is in flight.
func (p *Peer) Departing() bool { return p.departing }

// DirectoryReplica exposes the peer's directory replica. Callers must
// treat it as read-only: it is mutated only by committed FedAvg-layer
// log entries.
func (p *Peer) DirectoryReplica() *directory.Directory { return p.dir }

// buildSeedDirectory encodes the bootstrap directory: every initial
// peer registered in its subgroup with share index = position in the
// subgroup, exactly the assignment the SAC layer used before churn
// existed.
func (s *System) buildSeedDirectory() []byte {
	d := directory.New()
	for g, ids := range s.bySub {
		for i, id := range ids {
			// Applying join frames in (subgroup, position) order cannot
			// fail and assigns exactly the proposed indices.
			_, _ = d.Apply(wire.DirectoryUpdate{
				Op: wire.DirJoin, ID: id, Subgroup: g, ShareIndex: i, Addr: peerAddr(id),
			})
		}
	}
	return d.EncodeSnapshot()
}

// applyDirectoryEntry applies one committed FedAvg-layer EntryNormal to
// p's directory replica if it is a directory frame; other normal
// entries pass through untouched. Duplicate leaves (a retried proposal
// that committed twice) are rejected by every replica identically, so
// ignoring the error preserves convergence.
func (s *System) applyDirectoryEntry(p *Peer, data []byte) {
	kind, n, err := wire.ParseHeader(data)
	if err != nil || kind != wire.KindDirectory || len(data) != wire.HeaderSize+n {
		return
	}
	u, err := wire.DecodeDirectoryPayload(data[wire.HeaderSize:])
	if err != nil {
		return
	}
	if _, err := p.dir.Apply(u); err != nil {
		s.opts.Telemetry.Counter("cluster/churn/directory_rejected").Inc()
		return
	}
	s.opts.Telemetry.Counter("cluster/churn/directory_applied").Inc()
}

// Directory returns the FedAvg leader's directory replica — the
// authoritative view round drivers read — or nil when the layer has no
// leader.
func (s *System) Directory() *directory.Directory {
	l := s.FedAvgLeader()
	if l == raft.None {
		return nil
	}
	return s.peers[l].dir
}

// DirectoryReplicas returns the peers currently holding a live
// directory replica — a running FedAvg-layer node that is a member of
// the layer — ascending. A live fed node outside the membership is an
// orphaned joiner (its addition never committed before it lost subgroup
// leadership, so the layer never replicates to it); it holds stale
// state by design and is not a replica.
func (s *System) DirectoryReplicas() []uint64 {
	members := s.FedAvgMembers()
	var out []uint64
	for _, id := range s.PeerIDs() {
		p := s.peers[id]
		if p.fedHost == nil || p.fedHost.Down() {
			continue
		}
		if members != nil && !contains(members, id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// DirectoryConverged reports whether every live directory replica holds
// the same state (equal checksums) — the chaos directory-convergence
// invariant, meaningful after quiesce.
func (s *System) DirectoryConverged() bool {
	replicas := s.DirectoryReplicas()
	if len(replicas) == 0 {
		return false
	}
	want := s.peers[replicas[0]].dir.Checksum()
	for _, id := range replicas[1:] {
		if s.peers[id].dir.Checksum() != want {
			return false
		}
	}
	return true
}

// DirectoryMatchesMembership reports whether the directory records
// exactly the admitted membership (s.bySub): same id set, same subgroup
// per id, and per-subgroup share indices sound. This is ground truth the
// directory cannot derive from its own bookkeeping. It is judged on the
// lowest-id live replica — once DirectoryConverged has shown the
// replicas equal that is every replica, so the verdict does not depend
// on whether the layer has a leader at this instant. False while no
// replica is live.
func (s *System) DirectoryMatchesMembership() bool {
	replicas := s.DirectoryReplicas()
	if len(replicas) == 0 {
		return false
	}
	d := s.peers[replicas[0]].dir
	total := 0
	for g, ids := range s.bySub {
		total += len(ids)
		if !d.ShareIndexesSound(g) {
			return false
		}
		for _, id := range ids {
			e, ok := d.Lookup(id)
			if !ok || e.Subgroup != g {
				return false
			}
		}
	}
	return d.Len() == total
}

// ChurnIdle reports whether no admission or departure is in flight.
func (s *System) ChurnIdle() bool { return s.pendingChurn == 0 }

// proposeDirectory proposes one directory update through the current
// FedAvg leader, if any. Callers retry until their done condition holds;
// duplicate commits are harmless (joins are idempotent, duplicate
// leaves are rejected identically on every replica).
func (s *System) proposeDirectory(u wire.DirectoryUpdate) {
	l := s.FedAvgLeader()
	if l == raft.None {
		return
	}
	lp := s.peers[l]
	if lp == nil || lp.fedHost == nil || lp.fedHost.Down() {
		return
	}
	// Not the leader any more: the caller's retry asks whoever is.
	_ = lp.fedHost.Propose(wire.AppendDirectoryFrame(nil, u))
}

// subgroupMembers returns the subgroup leader's committed membership
// view, or nil when the subgroup currently has no live leader.
func (s *System) subgroupMembers(g int) []uint64 {
	l := s.SubgroupLeader(g)
	if l == raft.None {
		return nil
	}
	return s.peers[l].subHost.Node.Members()
}

// forever is the limit of a procedure that retries for as long as it
// takes: admissions and departures, which nobody waits on.
const forever simnet.Duration = -1

// step is one committed step of a membership procedure: done reports
// that its effect shows in committed state, kick asks for it once more
// (nil for a step that only waits), what names it in a timeout error.
type step struct {
	what string
	done func() bool
	kick func()
}

// drive runs a membership procedure — a join, a departure, or one phase
// of a split or merge: steps in order, the current one kicked every
// joinPollInterval until it is done. The next step is not asked for
// until the previous one shows, so a procedure's membership changes are
// serial by construction. then receives nil after the last step, or an
// error naming the step that stayed undone for limit.
func (s *System) drive(steps []step, limit simnet.Duration, then func(error)) {
	since := s.Sim.Now()
	var attempt func()
	attempt = func() {
		for len(steps) > 0 && steps[0].done() {
			steps, since = steps[1:], s.Sim.Now()
		}
		switch {
		case len(steps) == 0:
			then(nil)
			return
		case limit != forever && s.Sim.Now() >= since+simnet.Time(limit):
			then(fmt.Errorf("%s did not commit within %v ms", steps[0].what, limit.Ms()))
			return
		case steps[0].kick != nil:
			steps[0].kick()
		}
		s.Sim.Schedule(joinPollInterval, attempt)
	}
	attempt()
}

// subgroupChange is the step that commits one membership change in
// subgroup g's raft group, asked of whoever leads it at each kick.
func (s *System) subgroupChange(g int, cc raft.ConfChange) step {
	what := fmt.Sprintf("removal of peer %d from subgroup %d", cc.NodeID, g)
	if cc.Add {
		what = fmt.Sprintf("admission of peer %d into subgroup %d", cc.NodeID, g)
	}
	return step{
		what: what,
		done: func() bool {
			m := s.subgroupMembers(g)
			return m != nil && contains(m, cc.NodeID) == cc.Add
		},
		kick: func() {
			if l := s.SubgroupLeader(g); l != raft.None {
				s.askLeader(s.subGroups[g], l, cc, nil)
			}
		},
	}
}

// directoryJoin is the step that registers peer id under subgroup g in
// the directory, at the lowest share index free when the FedAvg leader
// proposes it. A peer already registered elsewhere moves: re-registration
// releases its old slot in the same committed entry, so share-index
// soundness never breaks in between.
func (s *System) directoryJoin(id uint64, g int) step {
	return step{
		what: fmt.Sprintf("directory move of peer %d to subgroup %d", id, g),
		done: func() bool {
			d := s.Directory()
			if d == nil {
				return false
			}
			e, ok := d.Lookup(id)
			return ok && e.Subgroup == g
		},
		kick: func() {
			if d := s.Directory(); d != nil {
				s.proposeDirectory(wire.DirectoryUpdate{
					Op: wire.DirJoin, ID: id, Subgroup: g,
					ShareIndex: d.NextShareIndex(g), Addr: peerAddr(id),
				})
			}
		},
	}
}

func contains(ids []uint64, id uint64) bool { return indexOf(ids, id) >= 0 }

// indexOf returns id's position in ids, or -1.
func indexOf(ids []uint64, id uint64) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// refreshWatches realigns every live detector in subgroup g with the
// current membership — membership changes do not fire raft state
// changes on bystanders, so updateWatch would otherwise only catch up
// at the next election.
func (s *System) refreshWatches(g int) {
	for _, id := range s.bySub[g] {
		p := s.peers[id]
		if p == nil || p.det == nil || p.Down() {
			continue
		}
		s.updateWatch(p, p.subHost.Node.State(), p.subHost.Node.Leader())
	}
}

// AddPeer admits a brand-new peer into subgroup g mid-training. The
// peer's raft node starts from the current subgroup membership (not
// including itself, so it cannot campaign before its addition commits)
// and the admission protocol runs in the background: the subgroup
// leader is asked to commit ConfChange{Add:true}, then the FedAvg
// leader commits the directory join, which assigns the peer its share
// index for the next SAC round. WaitAdmitted blocks until both steps
// committed. Returns the new peer's id.
func (s *System) AddPeer(g int) (uint64, error) {
	if g < 0 || g >= len(s.bySub) {
		return 0, fmt.Errorf("cluster: no subgroup %d", g)
	}
	id := s.nextID
	s.nextID++
	p, err := s.newPeer(id)
	if err != nil {
		return 0, err
	}
	if err := s.addSubNode(p, g, kindInitial, append([]uint64(nil), s.bySub[g]...)); err != nil {
		return 0, err
	}
	s.pendingChurn++
	s.opts.Telemetry.Counter("cluster/churn/joins").Inc()
	// The procedure runs on behalf of the joiner (the proposals are made
	// by the respective leaders), so it makes progress even while the
	// joiner itself is briefly down.
	s.drive([]step{
		s.subgroupChange(g, raft.ConfChange{Add: true, NodeID: id}),
		s.directoryJoin(id, g),
	}, forever, func(error) { s.finalizeAdmission(p) })
	return id, nil
}

func (s *System) finalizeAdmission(p *Peer) {
	s.bySub[p.Subgroup] = append(s.bySub[p.Subgroup], p.ID)
	s.pendingChurn--
	s.refreshWatches(p.Subgroup)
	s.record(EvPeerJoined, p.ID, p.Subgroup)
}

// Admitted reports whether the peer completed admission (initial peers
// are admitted by construction).
func (s *System) Admitted(id uint64) bool {
	p := s.peers[id]
	return p != nil && contains(s.bySub[p.Subgroup], id)
}

// WaitAdmitted runs the simulation until peer id's admission completes.
func (s *System) WaitAdmitted(id uint64, limit simnet.Duration) (simnet.Time, error) {
	deadline := s.Sim.Now() + simnet.Time(limit)
	if ok := s.Sim.RunWhileNot(func() bool { return s.Admitted(id) }, deadline); !ok {
		return 0, fmt.Errorf("cluster: peer %d was not admitted within %v ms", id, limit.Ms())
	}
	return s.Sim.Now(), nil
}

// DepartPeer starts a graceful departure: model handoff to a co-member,
// directory leave, subgroup (and FedAvg-layer, if the peer is a member)
// ConfChange{Add:false}, then host removal and detector scrubbing, in
// that order — the transfer always precedes the removal commit. Crashed
// peers may depart too (their model is unrecoverable, so the handoff is
// skipped). The subgroup must retain at least two members.
func (s *System) DepartPeer(id uint64) error {
	p := s.peers[id]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %d", id)
	}
	if p.departing {
		return nil
	}
	// The floor counts only members not already on their way out, so
	// concurrent departures cannot race past it together.
	staying := 0
	for _, mid := range s.bySub[p.Subgroup] {
		if q := s.peers[mid]; q != nil && !q.departing {
			staying++
		}
	}
	if staying < 3 {
		return fmt.Errorf("cluster: departure would shrink subgroup %d below 2 members", p.Subgroup)
	}
	if !s.Admitted(id) {
		return fmt.Errorf("cluster: peer %d is not admitted", id)
	}
	p.departing = true
	s.pendingChurn++
	s.opts.Telemetry.Counter("cluster/churn/departs").Inc()
	if !p.Down() && len(p.model) > 0 {
		if su := s.handoffSuccessor(p); su != nil {
			n, err := s.transferModel(p, su)
			if err == nil {
				s.opts.Telemetry.Counter("cluster/churn/handoff_bytes").Add(int64(n))
				s.record(EvHandoff, p.ID, p.Subgroup)
			}
		}
	}
	s.drive([]step{
		{ // directory leave committed at the FedAvg leader
			done: func() bool {
				d := s.Directory()
				if d == nil {
					return false
				}
				_, ok := d.Lookup(p.ID)
				return !ok
			},
			kick: func() { s.proposeDirectory(wire.DirectoryUpdate{Op: wire.DirLeave, ID: p.ID}) },
		},
		s.subgroupChange(p.Subgroup, raft.ConfChange{NodeID: p.ID}),
		{ // FedAvg-layer removal (only for peers that joined it)
			done: func() bool {
				if p.fedHost == nil {
					return true
				}
				m := s.FedAvgMembers()
				return m != nil && !contains(m, p.ID)
			},
			kick: func() {
				if l := s.FedAvgLeader(); l != raft.None {
					s.askLeader(s.fedGroup, l, raft.ConfChange{NodeID: p.ID}, nil)
				}
			},
		},
	}, forever, func(error) { s.finalizeDeparture(p) })
	return nil
}

// handoffSuccessor picks the lowest-id live co-member as the recipient
// of a departing peer's model.
func (s *System) handoffSuccessor(p *Peer) *Peer {
	for _, id := range s.bySub[p.Subgroup] {
		if id == p.ID {
			continue
		}
		if su := s.peers[id]; su != nil && !su.Down() {
			return su
		}
	}
	return nil
}

// modelFrame encodes the peer's model as a checkpoint wire frame — the
// form in which a model leaves a process.
func (p *Peer) modelFrame() []byte {
	return wire.AppendCheckpointFrame(nil, wire.Checkpoint{
		Names:   []string{"model"},
		Sizes:   []int{len(p.model)},
		Weights: append([]float64(nil), p.model...),
	})
}

// transferModel moves p's model to su through the checkpoint wire kind:
// the departing side encodes a frame, the successor decodes the exact
// bytes — the same codec a cross-process transfer would use. Returns
// the transferred byte count.
func (s *System) transferModel(p, su *Peer) (int, error) {
	frame := p.modelFrame()
	cp, err := wire.ReadCheckpointFrame(bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	su.inherited = cp.Weights
	return len(frame), nil
}

// finalizeDeparture removes the departed peer's hosts and scrubs every
// trace of it from co-members' detectors and RTT trackers — the leak
// (and stale-verdict) prevention half of the churn story.
func (s *System) finalizeDeparture(p *Peer) {
	s.subGroups[p.Subgroup].Remove(p.ID)
	if p.fedHost != nil {
		s.fedGroup.Remove(p.ID)
	}
	ids := s.bySub[p.Subgroup][:0]
	for _, id := range s.bySub[p.Subgroup] {
		if id != p.ID {
			ids = append(ids, id)
		}
	}
	s.bySub[p.Subgroup] = ids
	delete(s.peers, p.ID)
	delete(s.lastSeen, p.ID)
	for _, id := range s.PeerIDs() {
		cp := s.peers[id]
		if cp.det != nil {
			cp.det.Forget(p.ID)
		}
		if cp.rtt != nil {
			cp.rtt.Forget(p.ID)
		}
		delete(s.lastSeen[id], p.ID)
	}
	s.refreshWatches(p.Subgroup)
	s.pendingChurn--
	s.record(EvPeerDeparted, p.ID, p.Subgroup)
}

// WaitDeparted runs the simulation until peer id's departure completes.
func (s *System) WaitDeparted(id uint64, limit simnet.Duration) (simnet.Time, error) {
	deadline := s.Sim.Now() + simnet.Time(limit)
	if ok := s.Sim.RunWhileNot(func() bool { return s.peers[id] == nil }, deadline); !ok {
		return 0, fmt.Errorf("cluster: peer %d did not depart within %v ms", id, limit.Ms())
	}
	return s.Sim.Now(), nil
}

// ReplacePeer performs a graceful same-identity handoff: the running
// process captures its persisted raft state (subgroup and, if present,
// FedAvg-layer) as raft-state wire frames and its model as a checkpoint
// wire frame, stops, and a successor process resumes the same logical
// node from the decoded frames one link latency later — no retraining,
// no lost log entries, no membership change. Returns the transferred
// byte count: the exact size of the three frames.
func (s *System) ReplacePeer(id uint64) (int, error) {
	p := s.peers[id]
	if p == nil {
		return 0, fmt.Errorf("cluster: unknown peer %d", id)
	}
	if p.Down() {
		return 0, fmt.Errorf("cluster: peer %d is down", id)
	}
	subFrame := wire.AppendRaftStateFrame(nil, p.subHost.Node.Persist())
	var fedFrame []byte
	if p.fedHost != nil && !p.fedHost.Down() {
		fedFrame = wire.AppendRaftStateFrame(nil, p.fedHost.Node.Persist())
	}
	frame := p.modelFrame()
	transferred := len(frame) + len(subFrame) + len(fedFrame)
	p.subHost.Crash()
	if fedFrame != nil {
		p.fedHost.Crash()
	}
	// The successor resumes one link latency (the transfer) plus one
	// tick (its process start) after the hand-off.
	delay := s.subGroups[p.Subgroup].TickInterval + s.opts.Latency
	s.Sim.Schedule(delay, func() {
		cp, err := wire.ReadCheckpointFrame(bytes.NewReader(frame))
		if err != nil {
			return
		}
		p.model = cp.Weights
		subPS, err := wire.ReadRaftStateFrame(bytes.NewReader(subFrame))
		if err != nil {
			return
		}
		if err := p.subHost.RestartFrom(s.raftConfig(p, kindHandoffSub, nil), subPS); err != nil {
			return
		}
		if fedFrame != nil {
			if fedPS, err := wire.ReadRaftStateFrame(bytes.NewReader(fedFrame)); err == nil {
				_ = p.fedHost.RestartFrom(s.raftConfig(p, kindHandoffFed, nil), fedPS)
			}
		}
		// The successor is a fresh process: detector and RTT history are
		// in-memory state it cannot have. Its raft state, model and
		// directory replica it does have — they were transferred.
		s.resetVolatile(p)
		s.record(EvHandoff, p.ID, p.Subgroup)
	})
	s.opts.Telemetry.Counter("cluster/churn/handoffs").Inc()
	s.opts.Telemetry.Counter("cluster/churn/handoff_bytes").Add(int64(transferred))
	return transferred, nil
}
