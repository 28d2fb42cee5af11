package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/raft"
)

// chains is the reference the tick blocks replay: every host ticked by
// a chain of its own, an event that re-schedules itself one Tick on
// after each tick. scheduleTick is that code, with the host's epoch kept
// here.
type chains struct {
	sim   *Sim
	epoch map[*Host]uint64
}

// scheduleTick takes h out of the tick block it joined and arms its
// tick chain under a new epoch: one closure that re-schedules itself
// every tick for as long as that epoch is the host's current one.
func (c *chains) scheduleTick(h *Host) {
	h.unplace()
	c.epoch[h]++
	epoch := c.epoch[h]
	var tick func()
	tick = func() {
		if c.epoch[h] != epoch {
			return
		}
		_ = h.Tick()
		c.sim.Schedule(Tick, tick)
	}
	c.sim.Schedule(Tick, tick)
}

// stop ends h's chain, as Crash and Remove did by advancing the epoch.
func (c *chains) stop(h *Host) { c.epoch[h]++ }

// traced is one entry of a merged trace: a host's Loop.Tick, or a
// message delivered to a host (key = group*100 + ID).
type traced struct {
	at       Time
	key      int
	delivery bool
}

func (e traced) String() string {
	what := "tick of"
	if e.delivery {
		what = "delivery to"
	}
	return fmt.Sprintf("%s host %d at %v ms", what, e.key, Duration(e.at).Ms())
}

// compareTraces fails at the first entry where the two traces differ.
func compareTraces(t *testing.T, name string, blocks, chained []traced) {
	t.Helper()
	for i := range min(len(blocks), len(chained)) {
		if blocks[i] != chained[i] {
			t.Fatalf("%s: entry %d is the %v under the tick blocks, the %v under the chains", name, i, blocks[i], chained[i])
		}
	}
	if len(blocks) != len(chained) {
		t.Fatalf("%s: %d entries under the tick blocks, %d under the chains", name, len(blocks), len(chained))
	}
}

// split reports whether a delivery ran between two ticks of one instant.
func split(trace []traced) bool {
	for i := 1; i+1 < len(trace); i++ {
		if e := trace[i]; e.delivery && !trace[i-1].delivery && trace[i-1].at == e.at {
			for _, f := range trace[i+1:] {
				if f.at != e.at {
					break
				}
				if !f.delivery {
					return true
				}
			}
		}
	}
	return false
}

// ghost is the one peer every tickWorld node has besides itself. It
// never exists, so a node that leads sends it one heartbeat a tick.
const ghost = 1000

// tickWorld runs a random schedule of joins, crashes, restarts and
// removals over two groups on one Sim, tracing every host tick and every
// delivery in order. Each node leads a group of itself and the ghost,
// with a heartbeat every tick, so each Loop.Tick sends exactly one
// message; the inputs that make it lead are sent quietly. Half the
// heartbeats also go out as an echo to a live host of the group, a
// message from a term no node is in, which changes nothing but is
// delivered and traced. With ref set, the tick chains tick the hosts
// instead of the tick blocks.
type tickWorld struct {
	sim    *Sim
	groups [2]*Group
	ref    *chains
	rng    *rand.Rand
	quiet  bool
	trace  []traced
	hosts  map[int]*Host // by key, removed ones deleted
	nextID [2]uint64
	self   int // the key of the host whose tick is drawing an op, or −1
	// ops counts what the schedule did, by kind and where it ran.
	ops map[string]int
}

func newTickWorld(t *testing.T, seed int64, topo func() *Topology, jitter Duration, chained bool) *tickWorld {
	w := &tickWorld{sim: New(), rng: rand.New(rand.NewSource(seed)), hosts: map[int]*Host{}, self: -1, ops: map[string]int{}}
	for i := range w.groups {
		g := NewGroup(w.sim, fmt.Sprintf("g%d", i), topo(), rand.New(rand.NewSource(seed+int64(i))))
		g.Jitter = jitter
		g.OnDeliver = func(m raft.Message, _ Duration) {
			w.trace = append(w.trace, traced{w.sim.Now(), i*100 + int(m.To), true})
		}
		w.groups[i] = g
	}
	if chained {
		w.ref = &chains{sim: w.sim, epoch: map[*Host]uint64{}}
	}
	for i := 0; i < 4; i++ {
		w.add(t, i%2)
	}
	// Operations on the millisecond and half-millisecond grids, so hosts
	// tick in two phases. Half of them run at their instant ahead of its
	// ticks; the other half defer to the end of the instant, after them.
	for i := 0; i < 40; i++ {
		at := Duration(w.rng.Intn(400)) * 500 * Microsecond
		after := w.rng.Intn(2) == 0
		w.sim.Schedule(at, func() {
			if after {
				w.sim.Schedule(0, func() { w.op(t, "after") })
				return
			}
			w.op(t, "before")
		})
	}
	return w
}

func (w *tickWorld) config(id uint64) raft.Config {
	return raft.Config{ID: id, Peers: []uint64{id, ghost}, ElectionTickMin: 2, ElectionTickMax: 3, HeartbeatTick: 1}
}

// lead makes h's node the leader of its pair, sending nothing.
func (w *tickWorld) lead(t *testing.T, h *Host) {
	w.quiet = true
	defer func() { w.quiet = false }()
	if err := h.Campaign(); err != nil {
		t.Fatal(err)
	}
	vote := raft.Message{Type: raft.MsgVoteResponse, From: ghost, To: h.Node.ID(), Term: h.Node.Term(), Granted: true}
	if err := h.Step(vote); err != nil {
		t.Fatal(err)
	}
	if h.Node.State() != raft.Leader {
		t.Fatalf("host %d did not take the lead", h.Node.ID())
	}
}

func (w *tickWorld) add(t *testing.T, group int) {
	w.nextID[group]++
	id := w.nextID[group]
	n, err := raft.NewNode(w.config(id))
	if err != nil {
		t.Fatal(err)
	}
	g := w.groups[group]
	h, err := g.Add(n)
	if err != nil {
		t.Fatal(err)
	}
	key := group*100 + int(id)
	w.hosts[key] = h
	h.Send = func(m raft.Message) {
		if w.quiet {
			return
		}
		w.trace = append(w.trace, traced{w.sim.Now(), key, false})
		g.deliver(m)
		if k := w.pickIn(group); k >= 0 && w.rng.Intn(2) == 0 {
			g.deliver(raft.Message{Type: raft.MsgAppendResponse, From: ghost, To: uint64(k % 100)})
		}
		if w.rng.Intn(25) == 0 {
			w.self = key
			w.op(t, "during")
			w.self = -1
		}
	}
	if w.ref != nil {
		w.ref.scheduleTick(h)
	}
	w.lead(t, h)
}

func (w *tickWorld) restart(t *testing.T, h *Host) {
	if err := h.Restart(w.config(h.Node.ID())); err != nil {
		t.Fatal(err)
	}
	if w.ref != nil {
		w.ref.scheduleTick(h)
	}
	w.lead(t, h)
}

func (w *tickWorld) crash(h *Host) {
	h.Crash()
	if w.ref != nil {
		w.ref.stop(h)
	}
}

// keys returns the sorted keys of the hosts that keep(key, host) picks.
func (w *tickWorld) keys(keep func(int, *Host) bool) []int {
	var keys []int
	for k, h := range w.hosts {
		if keep(k, h) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// pick returns the key of a random host whose Down is down, or −1.
func (w *tickWorld) pick(down bool) int {
	keys := w.keys(func(_ int, h *Host) bool { return h.Down() == down })
	if len(keys) == 0 {
		return -1
	}
	return keys[w.rng.Intn(len(keys))]
}

// pickIn returns the key of a random live host of group, or −1.
func (w *tickWorld) pickIn(group int) int {
	keys := w.keys(func(k int, h *Host) bool { return k/100 == group && !h.Down() })
	if len(keys) == 0 {
		return -1
	}
	return keys[w.rng.Intn(len(keys))]
}

// op draws one operation and runs it now; where names the place in the
// instant it runs from.
func (w *tickWorld) op(t *testing.T, where string) {
	kind := []string{"join", "crash", "restart", "bounce", "remove"}[w.rng.Intn(5)]
	switch kind {
	case "join":
		if len(w.hosts) >= 12 {
			return
		}
		for n := 1 + w.rng.Intn(3); n > 0; n-- {
			w.add(t, w.rng.Intn(2))
		}
	case "crash", "bounce":
		k := w.pick(false)
		if k < 0 {
			return
		}
		w.crash(w.hosts[k])
		if kind == "bounce" {
			w.restart(t, w.hosts[k])
			if k == w.self {
				w.ops["bounce self"]++
			}
		}
	case "restart":
		k := w.pick(true)
		if k < 0 {
			return
		}
		w.restart(t, w.hosts[k])
	case "remove":
		k := w.pick(w.rng.Intn(2) == 0)
		if k < 0 {
			return
		}
		h := w.hosts[k]
		if w.ref != nil {
			w.ref.stop(h)
		}
		w.groups[k/100].Remove(h.Node.ID())
		delete(w.hosts, k)
	}
	w.ops[kind+" "+where]++
}

// tickTopologies are the networks the differential tests run on: links
// as long as a tick, so a message sent during one host's tick lands
// between the next instant's ticks; the paper's 15 ms links, where
// messages land on tick instants; and links of 0.5–1.5 ms, which land
// on either tick grid and between them.
var tickTopologies = []struct {
	name   string
	topo   func() *Topology
	jitter Duration
}{
	{"1ms", func() *Topology { return Uniform(Millisecond) }, 0},
	{"15ms", func() *Topology { return Uniform(15 * Millisecond) }, 0},
	{"jittered", func() *Topology { return Uniform(500 * Microsecond) }, Millisecond},
}

// TestTickBlocksTickInChainOrder runs random schedules under the tick
// blocks and under the per-host tick chains they replaced, and requires
// the same ticks and deliveries in the same order. The schedules cover
// several hosts joining at one instant ahead of its ticks, between them
// (from a host's tick) and after them; a crash and restart inside one
// tick, the ticking host's own included; Remove between an instant's
// ticks; two groups on one Sim; two phases, the millisecond grid and
// the one half a millisecond off; and messages landing between the
// ticks of one instant.
func TestTickBlocksTickInChainOrder(t *testing.T) {
	const horizon = Time(200 * Millisecond)
	for _, tp := range tickTopologies {
		t.Run(tp.name, func(t *testing.T) {
			seen := map[string]int{}
			phases, splits := false, 0
			for seed := int64(1); seed <= 30; seed++ {
				blocks := newTickWorld(t, seed, tp.topo, tp.jitter, false)
				chained := newTickWorld(t, seed, tp.topo, tp.jitter, true)
				blocks.sim.RunUntil(horizon)
				chained.sim.RunUntil(horizon)
				if len(blocks.trace) == 0 {
					t.Fatalf("seed %d: nothing ticked", seed)
				}
				compareTraces(t, fmt.Sprintf("seed %d", seed), blocks.trace, chained.trace)
				for k, n := range blocks.ops {
					seen[k] += n
				}
				if split(chained.trace) {
					splits++
				}
				onGrid := map[bool]bool{}
				for _, e := range blocks.trace[len(blocks.trace)/2:] {
					if !e.delivery {
						onGrid[e.at%Time(Millisecond) == 0] = true
					}
				}
				phases = phases || len(onGrid) == 2
			}
			for _, kind := range []string{"join", "bounce", "remove"} {
				for _, where := range []string{"before", "during", "after"} {
					if seen[kind+" "+where] == 0 {
						t.Errorf("no schedule ran a %s %s an instant's ticks: %v", kind, where, seen)
					}
				}
			}
			if seen["bounce self"] == 0 {
				t.Errorf("no host crashed and restarted inside its own tick: %v", seen)
			}
			if !phases {
				t.Errorf("no schedule ticked hosts in two phases")
			}
			if tp.name != "15ms" && splits == 0 {
				t.Errorf("no delivery ran between two ticks of one instant")
			}
		})
	}
}

// TestTickBlocksMatchChainsUnderRaftTraffic runs two real three-node
// raft groups on one Sim, crashing and restarting a random member every
// 40 ms, under the tick blocks and under the tick chains, and requires
// the same sends and deliveries in the same order: elections, votes and
// heartbeats, whose outcome turns on whether a tick or a message comes
// first.
func TestTickBlocksMatchChainsUnderRaftTraffic(t *testing.T) {
	run := func(seed int64, topo func() *Topology, jitter Duration, chained bool) []traced {
		sim := New()
		var ref *chains
		if chained {
			ref = &chains{sim: sim, epoch: map[*Host]uint64{}}
		}
		var trace []traced
		rng := rand.New(rand.NewSource(seed))
		ids := []uint64{1, 2, 3}
		config := func(gi int, id uint64) raft.Config {
			return raft.Config{ID: id, Peers: ids, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 3,
				Rng: rand.New(rand.NewSource(seed*100 + int64(gi*10) + int64(id)))}
		}
		var hosts []*Host
		group := map[*Host]int{}
		for gi := 0; gi < 2; gi++ {
			g := NewGroup(sim, fmt.Sprintf("g%d", gi), topo(), rand.New(rand.NewSource(seed+int64(gi))))
			g.Jitter = jitter
			g.OnDeliver = func(m raft.Message, _ Duration) {
				trace = append(trace, traced{sim.Now(), gi*100 + int(m.To), true})
			}
			for _, id := range ids {
				n, err := raft.NewNode(config(gi, id))
				if err != nil {
					t.Fatal(err)
				}
				h, err := g.Add(n)
				if err != nil {
					t.Fatal(err)
				}
				key := gi*100 + int(id)
				h.Send = func(m raft.Message) {
					trace = append(trace, traced{sim.Now(), key, false})
					g.deliver(m)
				}
				if ref != nil {
					ref.scheduleTick(h)
				}
				hosts = append(hosts, h)
				group[h] = gi
			}
		}
		for at := 40 * Millisecond; at < 2*Second; at += 40 * Millisecond {
			sim.Schedule(at+Duration(rng.Intn(2))*500*Microsecond, func() {
				h := hosts[rng.Intn(len(hosts))]
				if h.Down() {
					if err := h.Restart(config(group[h], h.Node.ID())); err != nil {
						t.Fatal(err)
					}
					if ref != nil {
						ref.scheduleTick(h)
					}
					return
				}
				h.Crash()
				if ref != nil {
					ref.stop(h)
				}
			})
		}
		sim.RunUntil(Time(2 * Second))
		return trace
	}
	for _, tp := range tickTopologies {
		for seed := int64(1); seed <= 5; seed++ {
			blocks, chained := run(seed, tp.topo, tp.jitter, false), run(seed, tp.topo, tp.jitter, true)
			if len(blocks) < 1000 {
				t.Fatalf("%s seed %d: only %d sends and deliveries", tp.name, seed, len(blocks))
			}
			compareTraces(t, fmt.Sprintf("%s seed %d", tp.name, seed), blocks, chained)
		}
	}
}
