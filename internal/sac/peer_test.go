package sac

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/secretshare"
	"repro/internal/transport"
)

// handRound is a round stepped by the test itself: n Peers, each with a
// share block of its own, and no mesh — a message goes from one peer's
// Ready straight into its addressee's Step.
type handRound struct {
	t       *testing.T
	cfg     Config
	peers   []Peer
	down    []bool
	shuffle *rand.Rand // non-nil: what one Ready holds is delivered in a shuffled order
	invalid int        // messages the peers discarded
	// at, when set, is called inside turn i once its genuine shares have
	// arrived (point i) and once every peer is sealed (point n).
	at func(point int)
}

func newHandRound(t *testing.T, cfg Config, dim int, shuffle *rand.Rand) *handRound {
	h := &handRound{t: t, cfg: cfg, peers: make([]Peer, cfg.N), down: make([]bool, cfg.N), shuffle: shuffle}
	for j := range h.peers {
		if err := h.peers[j].Begin(j, cfg, dim); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// step hands one message to its addressee, and on whatever it answers;
// it reports whether the addressee discarded it.
func (h *handRound) step(m transport.Message) bool {
	h.peers[m.To].Step(m)
	return h.pump(m.To) > 0
}

// pump delivers what peer j wants sent, then what the receivers want sent
// in return (a recovery answer, an audit echo), until nobody does. It
// returns how many messages j itself had discarded.
func (h *handRound) pump(j int) int {
	send, _, invalid := h.peers[j].Ready()
	h.invalid += invalid
	msgs := slices.Clone(send) // Ready's slices are the peer's
	if h.shuffle != nil {
		h.shuffle.Shuffle(len(msgs), func(a, b int) { msgs[a], msgs[b] = msgs[b], msgs[a] })
	}
	for _, m := range msgs {
		if !h.down[m.To] {
			h.peers[m.To].Step(m)
		}
	}
	for _, m := range msgs {
		h.pump(m.To)
	}
	return invalid
}

// kill is the failure detector reporting j to every peer.
func (h *handRound) kill(j int) {
	h.down[j] = true
	for l := range h.peers {
		h.peers[l].Down(j)
	}
}

// shares runs the share exchange and seals every peer: the driver's
// part, with the turn barrier's OR written out.
func (h *handRound) shares(models [][]float64, rng *rand.Rand) {
	for i := range h.peers {
		for j := range h.peers {
			h.peers[j].BeginTurn(i)
		}
		if err := h.peers[i].Contribute(models[i], rng); err != nil {
			h.t.Fatal(err)
		}
		h.pump(i)
		if h.at != nil {
			h.at(i)
		}
		fold := true
		for j := range h.peers {
			fold = fold && !h.peers[j].Caught()
		}
		for j := range h.peers {
			h.peers[j].EndTurn(fold)
		}
	}
	for j := range h.peers {
		h.peers[j].Seal()
		h.pump(j)
	}
	if h.at != nil {
		h.at(len(h.peers))
	}
}

// report moves every subtotal to whoever collects it, in ascending
// share-index order, recovering those of peers killed since the shares.
func (h *handRound) report() {
	n, leader := h.cfg.N, h.cfg.Leader
	for s := 0; s < n; s++ {
		holders, err := secretshare.HoldersOf(s, n, h.cfg.K)
		if err != nil {
			h.t.Fatal(err)
		}
		switch {
		case h.cfg.Mode == ModeBroadcast || h.cfg.crossChecks():
		case slices.Contains(holders, leader):
			continue
		case !h.down[s]:
			holders = []int{s}
		default:
			h.peers[leader].Recover(s)
			h.pump(leader)
			continue
		}
		for _, j := range holders {
			if !h.down[j] {
				h.peers[j].Report(s)
				h.pump(j)
			}
		}
	}
}

// collector is the peer whose Result is the round's: the leader, or
// peer 0 under Alg. 2.
func (h *handRound) collector() int {
	if h.cfg.Mode == ModeLeader {
		return h.cfg.Leader
	}
	return 0
}

// finish is the round's Result at the collector, audit included.
func (h *handRound) finish() *Result {
	res, err := h.peers[h.collector()].Finish()
	if err != nil {
		h.t.Fatal(err)
	}
	h.pump(h.collector())
	for j := range h.peers {
		res.LeaderAccused = res.LeaderAccused || h.peers[j].Convicts()
	}
	return res
}

// TestPeersSteppedByHandMatchRun: the protocol is the Peers', not the
// driver's. n Peers stepped by the test with no mesh — every batch of
// messages delivered in a shuffled order across receivers — give Run's
// average bit for bit.
func TestPeersSteppedByHandMatchRun(t *testing.T) {
	const dim = 7
	for _, c := range []Config{
		{N: 3, K: 2, Mode: ModeLeader, Leader: 1},
		{N: 5, K: 3, Mode: ModeLeader, Leader: 0},
		{N: 4, K: 4, Mode: ModeLeader, Leader: 3},
		{N: 4, K: 4, Mode: ModeBroadcast},
		{N: 5, K: 3, Mode: ModeLeader, Leader: 2, Guard: &Guard{ShareBound: 100, CrossCheck: true}},
	} {
		models := randModels(rand.New(rand.NewSource(71)), c.N, dim)
		c.Rng = rand.New(rand.NewSource(72))
		want, err := Run(transport.NewMesh(c.N, nil), c, models, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := newHandRound(t, c, dim, rand.New(rand.NewSource(73)))
		h.shares(models, rand.New(rand.NewSource(72)))
		h.report()
		got := h.finish()
		if !bitsEqual(got.Avg, want.Avg) {
			t.Errorf("n=%d k=%d mode %d: stepped by hand %v, Run %v", c.N, c.K, c.Mode, got.Avg, want.Avg)
		}
		if !slices.Equal(got.Contributors, want.Contributors) || got.LeaderAccused != want.LeaderAccused || h.invalid != 0 {
			t.Errorf("n=%d k=%d mode %d: contributors %v accused %v invalid %d, Run %v %v 0",
				c.N, c.K, c.Mode, got.Contributors, got.LeaderAccused, h.invalid, want.Contributors, want.LeaderAccused)
		}
	}
}

// TestForgedSubtotalsNeverReachTheAverage is the phase-3 sibling of
// TestForgedSharesNeverReachASubtotal. A collector averages what it was
// sent, so who may send what is a rule of Step: each forgery below is
// handed to a Peer — well-formed, and of the model dimension unless that
// is the point — and the round must stay bit-identical to a clean one,
// with every forgery counted invalid.
func TestForgedSubtotalsNeverReachTheAverage(t *testing.T) {
	const dim = 6
	junk := func(d int) []float64 {
		v := make([]float64, d)
		for x := range v {
			v[x] = 9e9
		}
		return v
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// recover kills peer 2 once the shares are over and has the leader
		// ask for its subtotal, so the early forgeries arrive while that
		// answer is outstanding; otherwise they arrive before any genuine
		// subtotal. The late ones arrive after all of them.
		recover     bool
		early, late []transport.Message
	}{
		{name: "plain leader", cfg: Config{N: 4, K: 3, Mode: ModeLeader, Leader: 0},
			// Peer j holds indices j and j+1: the leader 0 and 1, and index 2
			// is held by 1 and owned by 2, index 3 held by 2 and owned by 3.
			early: []transport.Message{
				{From: 1, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)},     // a holder, not the owner
				{From: 3, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)},     // not even a holder
				{From: 1, To: 0, Kind: KindSubtotal, ShareIdx: 1, Payload: junk(dim)},     // the owner, of an index the leader sums itself
				{From: 2, To: 0, Kind: KindRecovery, ShareIdx: 3, Payload: junk(dim)},     // nobody asked
				{From: 2, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim - 1)}, // wrong dimension
				{From: 2, To: 0, Kind: KindSubtotal, ShareIdx: 7, Payload: junk(dim)},     // no such index
				{From: 2, To: 1, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)},     // not a collector
			},
			late: []transport.Message{
				{From: 2, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)}, // duplicate: the first copy won
			}},
		{name: "recovery", recover: true, cfg: Config{N: 4, K: 2, Mode: ModeLeader, Leader: 3},
			// The leader holds 3, 0 and 1; index 2 is held by 0 and 1 besides
			// its owner, and the leader asks the first of them.
			early: []transport.Message{
				{From: 1, To: 3, Kind: KindRecovery, ShareIdx: 2, Payload: junk(dim)}, // a holder, not the one asked
				{From: 0, To: 3, Kind: KindRecovery, ShareIdx: 1, Payload: junk(dim)}, // the one asked, another index
				{From: 1, To: 3, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)}, // a holder posing as the owner
			},
			late: []transport.Message{
				{From: 0, To: 3, Kind: KindRecovery, ShareIdx: 2, Payload: junk(dim)}, // duplicate answer
			}},
		{name: "cross-check", cfg: Config{N: 4, K: 3, Mode: ModeLeader, Leader: 0, Guard: &Guard{CrossCheck: true}},
			early: []transport.Message{
				{From: 3, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)}, // index 2 is held by 1 and 2
				{From: 3, To: 0, Kind: KindSubtotal, ShareIdx: 1, Payload: junk(dim)}, // index 1 by 0 and 1
				{From: 2, To: 0, Kind: KindRecovery, ShareIdx: 2, Payload: junk(dim)}, // the cross-check asks nobody
			},
			late: []transport.Message{
				{From: 1, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)},    // duplicate of a holder's copy
				{From: 2, To: 1, Kind: KindClaims, ShareIdx: -1, Payload: junk(4 * dim)}, // claims, not from the leader
			}},
		{name: "broadcast", cfg: Config{N: 3, K: 3, Mode: ModeBroadcast},
			early: []transport.Message{
				{From: 1, To: 0, Kind: KindSubtotal, ShareIdx: 2, Payload: junk(dim)}, // wrong owner
				{From: 2, To: 0, Kind: KindSubtotal, ShareIdx: 0, Payload: junk(dim)}, // the collector's own index
			},
			late: []transport.Message{
				{From: 1, To: 0, Kind: KindSubtotal, ShareIdx: 1, Payload: junk(dim)}, // duplicate
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := randModels(rand.New(rand.NewSource(81)), tc.cfg.N, dim)
			round := func(forged bool) (*Result, int) {
				h := newHandRound(t, tc.cfg, dim, nil)
				h.shares(models, rand.New(rand.NewSource(82)))
				if tc.recover {
					h.kill(2)
					if asked := h.peers[tc.cfg.Leader].Recover(2); asked != 0 {
						t.Fatalf("the leader asked %d to recover index 2, want 0", asked)
					}
				}
				for _, m := range tc.early {
					if forged {
						h.step(m)
					}
				}
				if tc.recover {
					h.pump(tc.cfg.Leader) // the request goes out, the answer comes back
				} else {
					h.report()
				}
				for _, m := range tc.late {
					if forged {
						h.step(m)
					}
				}
				return h.finish(), h.invalid
			}
			clean, invalid := round(false)
			if invalid != 0 {
				t.Fatalf("the clean round discarded %d messages", invalid)
			}
			got, invalid := round(true)
			if !bitsEqual(got.Avg, clean.Avg) || !slices.Equal(got.Recovered, clean.Recovered) ||
				got.Mismatches != clean.Mismatches || got.LeaderAccused != clean.LeaderAccused {
				t.Fatalf("forged subtotals moved the result: %+v, clean %+v", got, clean)
			}
			if want := len(tc.early) + len(tc.late); invalid != want {
				t.Fatalf("%d messages counted invalid, want %d", invalid, want)
			}
		})
	}
}
