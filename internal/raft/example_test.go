package raft_test

import (
	"fmt"
	"math/rand"

	"repro/internal/raft"
)

// A minimal three-node cluster driven by a lockstep loop: tick every
// node, deliver every pending message, repeat — the entire integration
// surface of the tick-driven design (Tick/Step/Ready) in ~30 lines.
// Real deployments replace the loop with wall-clock tickers
// (cmd/p2pfl-node) or virtual time (internal/simnet).
func Example() {
	ids := []uint64{1, 2, 3}
	nodes := map[uint64]*raft.Node{}
	for _, id := range ids {
		n, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
			Rng: rand.New(rand.NewSource(int64(id))),
		})
		if err != nil {
			panic(err)
		}
		nodes[id] = n
	}
	step := func() {
		for _, n := range nodes {
			n.Tick()
		}
		for moved := true; moved; {
			moved = false
			for _, n := range nodes {
				for _, m := range n.Ready().Messages {
					if dst, ok := nodes[m.To]; ok {
						_ = dst.Step(m)
						moved = true
					}
				}
			}
		}
	}
	var leader *raft.Node
	for i := 0; i < 100 && leader == nil; i++ {
		step()
		for _, n := range nodes {
			if n.State() == raft.Leader {
				leader = n
			}
		}
	}
	if err := leader.Propose([]byte("hello consensus")); err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		step()
	}
	committed := 0
	for _, n := range nodes {
		for _, e := range n.Log() {
			if string(e.Data) == "hello consensus" && e.Index <= n.CommitIndex() {
				committed++
			}
		}
	}
	fmt.Printf("entry committed on %d/3 nodes\n", committed)
	// Output: entry committed on 3/3 nodes
}
