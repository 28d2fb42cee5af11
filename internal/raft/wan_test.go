package raft

import (
	"fmt"
	"testing"
)

// wanCfg arms the WAN-stability feature flags on a harness cluster.
func wanCfg(prevote, checkQuorum bool) func(*Config) {
	return func(cfg *Config) {
		cfg.PreVote = prevote
		cfg.CheckQuorum = checkQuorum
	}
}

// sortedFollowers returns the live non-leader IDs in ascending order so
// tests pick partition victims deterministically.
func (c *cluster) sortedFollowers(lead *Node) []uint64 {
	var out []uint64
	for id, n := range c.nodes {
		if n != lead && !c.down[id] {
			out = append(out, id)
		}
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// TestPreVoteMinorityRejoinTermStable is the pre-vote safety property: a
// follower partitioned away from a healthy majority must not have grown
// its term while isolated (pre-vote probes without incrementing), so its
// rejoin deposes nobody. The same scenario without pre-vote shows the
// classic disruption — the rejoining node's inflated term forces the
// healthy leader to step down — proving the flag is what prevents it.
func TestPreVoteMinorityRejoinTermStable(t *testing.T) {
	for _, prevote := range []bool{true, false} {
		t.Run(fmt.Sprintf("prevote=%v", prevote), func(t *testing.T) {
			c := newClusterCfg(t, wanCfg(prevote, false), 1, 2, 3, 4, 5)
			lead := c.waitLeader(100)
			termBefore := lead.Term()

			iso := c.sortedFollowers(lead)[0]
			c.isolate(iso)
			c.run(200) // the isolated node times out many times over

			isoTerm := c.nodes[iso].Term()
			if prevote && isoTerm != termBefore {
				t.Fatalf("pre-vote: isolated node grew term %d → %d with no quorum", termBefore, isoTerm)
			}
			if !prevote && isoTerm <= termBefore {
				t.Fatalf("no pre-vote: isolated node should have grown its term, still %d", isoTerm)
			}

			c.heal(iso)
			c.run(60)

			final := c.leader()
			if final == nil {
				t.Fatal("no leader after rejoin")
			}
			if prevote {
				if final.Term() != termBefore {
					t.Fatalf("pre-vote: rejoin disrupted the cluster, term %d → %d", termBefore, final.Term())
				}
				if final != lead {
					t.Fatalf("pre-vote: rejoin deposed the healthy leader")
				}
			} else if final.Term() <= termBefore {
				t.Fatalf("no pre-vote: expected term disruption on rejoin, term still %d", final.Term())
			}
		})
	}
}

// TestCheckQuorumLeaderStepsDown: a leader cut off from every follower
// must abdicate within ElectionTickMax ticks when check-quorum is on —
// and linger as a stale leader forever when it is off (the failure mode
// check-quorum exists to fix: clients of the old leader would wait on a
// quorum that can never answer).
func TestCheckQuorumLeaderStepsDown(t *testing.T) {
	for _, cq := range []bool{true, false} {
		t.Run(fmt.Sprintf("checkquorum=%v", cq), func(t *testing.T) {
			c := newClusterCfg(t, wanCfg(false, cq), 1, 2, 3)
			lead := c.waitLeader(100)
			for _, id := range c.sortedFollowers(lead) {
				c.isolate(id)
			}
			// ElectionTickMax is 20 in the harness; give one extra round.
			c.run(25)
			if cq && lead.State() == Leader {
				t.Fatalf("check-quorum: leader still in charge %d ticks after losing every follower", 25)
			}
			if !cq && lead.State() != Leader {
				t.Fatalf("no check-quorum: leader unexpectedly stepped down to %v", lead.State())
			}
		})
	}
}
