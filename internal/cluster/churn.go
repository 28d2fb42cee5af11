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

// DirectoryMatchesMembership reports whether the FedAvg leader's
// directory records exactly the admitted membership (s.bySub): same id
// set, same subgroup per id, and per-subgroup share indices sound. This
// is ground truth the directory cannot derive from its own bookkeeping.
func (s *System) DirectoryMatchesMembership() bool {
	d := s.Directory()
	if d == nil {
		return false
	}
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
	if err := lp.fedHost.Node.Propose(wire.AppendDirectoryFrame(nil, u)); err == nil {
		lp.fedHost.Pump()
	}
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

// askSubgroupLeader sends subgroup g's current leader, if there is one,
// a request to propose one membership change. The request takes one link
// latency and is dropped if the leader crashed or lost leadership
// meanwhile; callers retry until the change shows in subgroupMembers.
func (s *System) askSubgroupLeader(g int, cc raft.ConfChange) {
	l := s.SubgroupLeader(g)
	if l == raft.None {
		return
	}
	lp := s.peers[l]
	s.sendApp(func() {
		if lp == nil || lp.Down() || !lp.IsSubgroupLeader() {
			return
		}
		if err := lp.subHost.Node.ProposeConfChange(cc); err == nil {
			lp.subHost.Pump()
		}
	})
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
	s.startAdmission(p)
	return id, nil
}

// startAdmission drives the two committed steps of a join, retrying
// every joinPollInterval. The loop runs on behalf of the joiner (the
// actual proposals are made by the respective leaders), so it makes
// progress even while the joiner itself is briefly down.
func (s *System) startAdmission(p *Peer) {
	step := 0
	var attempt func()
	attempt = func() {
		for {
			switch step {
			case 0: // subgroup membership change committed?
				if m := s.subgroupMembers(p.Subgroup); contains(m, p.ID) {
					step++
					continue
				}
				s.askSubgroupLeader(p.Subgroup, raft.ConfChange{Add: true, NodeID: p.ID})
			case 1: // directory join committed at the FedAvg leader?
				d := s.Directory()
				if d != nil {
					if _, ok := d.Lookup(p.ID); ok {
						step++
						continue
					}
					s.proposeDirectory(wire.DirectoryUpdate{
						Op: wire.DirJoin, ID: p.ID, Subgroup: p.Subgroup,
						ShareIndex: d.NextShareIndex(p.Subgroup), Addr: p.addr,
					})
				}
			case 2:
				s.finalizeAdmission(p)
				return
			}
			break
		}
		s.Sim.Schedule(joinPollInterval, attempt)
	}
	attempt()
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
	s.startDeparture(p)
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

// startDeparture drives the committed steps of a departure, retrying
// every joinPollInterval: directory leave, subgroup removal, FedAvg
// removal (members only), then finalization.
func (s *System) startDeparture(p *Peer) {
	step := 0
	var attempt func()
	attempt = func() {
		for {
			switch step {
			case 0: // directory leave committed at the FedAvg leader?
				if d := s.Directory(); d != nil {
					if _, ok := d.Lookup(p.ID); !ok {
						step++
						continue
					}
					s.proposeDirectory(wire.DirectoryUpdate{Op: wire.DirLeave, ID: p.ID})
				}
			case 1: // subgroup membership removal committed?
				m := s.subgroupMembers(p.Subgroup)
				if m != nil && !contains(m, p.ID) {
					step++
					continue
				}
				s.askSubgroupLeader(p.Subgroup, raft.ConfChange{Add: false, NodeID: p.ID})
			case 2: // FedAvg-layer removal (only for peers that joined it)
				if p.fedHost == nil {
					step++
					continue
				}
				l := s.FedAvgLeader()
				if l != raft.None {
					lp := s.peers[l]
					if !contains(lp.fedHost.Node.Members(), p.ID) {
						step++
						continue
					}
					if err := lp.fedHost.Node.ProposeConfChange(raft.ConfChange{Add: false, NodeID: p.ID}); err == nil {
						lp.fedHost.Pump()
					}
				}
			case 3:
				s.finalizeDeparture(p)
				return
			}
			break
		}
		s.Sim.Schedule(joinPollInterval, attempt)
	}
	attempt()
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
	// The successor resumes after one link latency (the transfer), and
	// strictly after the stranded tick closure of the crashed process
	// has fired and died — restarting at the same instant would arm a
	// second tick loop.
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
