package sac

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fl"
	"repro/internal/secretshare"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// handRound is a round stepped by the test itself: n Peers, each with a
// share block of its own, and no mesh — a message goes from one peer's
// Ready straight into its addressee's Step.
type handRound struct {
	t        *testing.T
	cfg      Config
	peers    []Peer
	down     []bool
	shuffle  *rand.Rand // non-nil: what one Ready holds is delivered in a shuffled order
	invalid  int        // messages the peers discarded
	requests int        // sac/recovery-req messages sent
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
		if m.Kind == KindRecoveryReq {
			h.requests++
		}
		if !h.down[m.To] {
			h.peers[m.To].Step(m)
		}
	}
	for _, m := range msgs {
		h.pump(m.To)
	}
	return invalid
}

// kill crashes peer j: it is stepped no more, and what is sent to it is
// dropped. Nobody is told.
func (h *handRound) kill(j int) { h.down[j] = true }

// shares runs the share exchange and seals every peer not killed: the
// driver's part. A peer killed before it has no turn. Every peer seals
// before any accusation is delivered, as under Run, where they are all
// sent before any is drained.
func (h *handRound) shares(models [][]float64, rng *rand.Rand) {
	for i := range h.peers {
		if h.down[i] {
			continue
		}
		for j := range h.peers {
			if !h.down[j] {
				h.peers[j].BeginTurn(i)
			}
		}
		if err := h.peers[i].Contribute(models[i], rng); err != nil {
			h.t.Fatal(err)
		}
		h.pump(i)
		if h.at != nil {
			h.at(i)
		}
	}
	for j := range h.peers {
		if !h.down[j] {
			h.peers[j].Seal()
		}
	}
	for j := range h.peers {
		h.pump(j)
	}
	if h.at != nil {
		h.at(len(h.peers))
	}
}

// report moves every subtotal to whoever collects it, in ascending
// share-index order. Where the owner was killed the leader's timeout,
// Recover, fires as under Run: it asks a replica holder, and after each
// ask that went unanswered the next.
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
			for h.peers[leader].Recover(s) >= 0 {
				h.pump(leader) // the request goes out, an answer comes back
			}
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
	res, err := h.peers[h.collector()].Finish(nil)
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
// average bit for bit, and nobody tells a peer who crashed. In (5, 3)
// led by peer 0, index 3 is held by peers 1 and 2 besides its owner:
// with 1 and 3 crashed after their shares the leader asks 1, hears
// nothing, and asks 2; with 1 crashed before its shares, 1 is silent
// from the seal and the leader asks 2 alone. Either way the round is the
// exact mean of every contributor's model, index 3 recovered.
func TestPeersSteppedByHandMatchRun(t *testing.T) {
	const dim = 7
	for _, tc := range []struct {
		cfg       Config
		crash     CrashPlan
		recovered []int
		requests  int // sac/recovery-req messages, on the mesh and by hand
	}{
		{Config{N: 3, K: 2, Mode: ModeLeader, Leader: 1}, nil, nil, 0},
		{Config{N: 5, K: 3, Mode: ModeLeader, Leader: 0}, nil, nil, 0},
		{Config{N: 4, K: 4, Mode: ModeLeader, Leader: 3}, nil, nil, 0},
		{Config{N: 4, K: 4, Mode: ModeBroadcast}, nil, nil, 0},
		{Config{N: 5, K: 3, Mode: ModeLeader, Leader: 2, Guard: &Guard{ShareBound: 100, CrossCheck: true}}, nil, nil, 0},
		{Config{N: 5, K: 3, Mode: ModeLeader, Leader: 0}, CrashPlan{1: AfterShares, 3: AfterShares}, []int{3}, 2},
		{Config{N: 5, K: 3, Mode: ModeLeader, Leader: 0}, CrashPlan{1: BeforeShares, 3: AfterShares}, []int{3}, 1},
	} {
		c := tc.cfg
		models := randModels(rand.New(rand.NewSource(71)), c.N, dim)
		c.Rng = rand.New(rand.NewSource(72))
		counter := transport.NewCounter()
		want, err := Run(transport.NewMesh(c.N, counter), c, models, tc.crash)
		if err != nil {
			t.Fatal(err)
		}
		if got := counter.Messages(KindRecoveryReq); got != int64(tc.requests) || !slices.Equal(want.Recovered, tc.recovered) {
			t.Fatalf("n=%d k=%d crash %v: Run sent %d recovery requests and recovered %v, want %d and %v",
				c.N, c.K, tc.crash, got, want.Recovered, tc.requests, tc.recovered)
		}
		mean := make([]float64, dim)
		for _, i := range want.Contributors {
			for x, v := range models[i] {
				mean[x] += v / float64(len(want.Contributors))
			}
		}
		for x := range mean {
			if math.Abs(want.Avg[x]-mean[x]) > 1e-12 {
				t.Fatalf("n=%d k=%d crash %v: Run's average %v is not the mean %v of its contributors' models", c.N, c.K, tc.crash, want.Avg, mean)
			}
		}
		h := newHandRound(t, c, dim, rand.New(rand.NewSource(73)))
		for j, at := range tc.crash {
			if at == BeforeShares {
				h.kill(j)
			}
		}
		h.shares(models, rand.New(rand.NewSource(72)))
		for j, at := range tc.crash {
			if at == AfterShares {
				h.kill(j)
			}
		}
		h.report()
		got := h.finish()
		if !bitsEqual(got.Avg, want.Avg) {
			t.Errorf("n=%d k=%d mode %d crash %v: stepped by hand %v, Run %v", c.N, c.K, c.Mode, tc.crash, got.Avg, want.Avg)
		}
		if !slices.Equal(got.Contributors, want.Contributors) || !slices.Equal(got.Recovered, want.Recovered) ||
			got.LeaderAccused != want.LeaderAccused || h.invalid != 0 || h.requests != tc.requests {
			t.Errorf("n=%d k=%d mode %d crash %v: contributors %v recovered %v accused %v invalid %d requests %d, Run %v %v %v 0 %d",
				c.N, c.K, c.Mode, tc.crash, got.Contributors, got.Recovered, got.LeaderAccused, h.invalid, h.requests,
				want.Contributors, want.Recovered, want.LeaderAccused, tc.requests)
		}
	}
}

// TestFinishWritesWhereItIsLent: Finish(avg) writes, bit for bit, the
// average Finish(nil) makes into avg[:dim] — so a caller that keeps a
// vector across rounds lends it and allocates none — and when avg has no
// room for it, Finish makes one and leaves avg as it was: nothing is
// written past avg's length. The same round, seeded alike, is collected
// each way.
func TestFinishWritesWhereItIsLent(t *testing.T) {
	const dim = 9
	for _, c := range []Config{
		{N: 3, K: 2, Mode: ModeLeader, Leader: 1},
		{N: 4, K: 4, Mode: ModeBroadcast},
		{N: 5, K: 3, Mode: ModeLeader, Leader: 2, Guard: &Guard{ShareBound: 100, CrossCheck: true}},
	} {
		models := randModels(rand.New(rand.NewSource(81)), c.N, dim)
		finish := func(avg []float64) *Result {
			h := newHandRound(t, c, dim, nil)
			h.shares(models, rand.New(rand.NewSource(82)))
			h.report()
			res, err := h.peers[h.collector()].Finish(avg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := finish(nil)
		lent := make([]float64, dim+2) // longer than the average: only avg[:dim] is its
		for i := range lent {
			lent[i] = math.NaN()
		}
		if got := finish(lent); &got.Avg[0] != &lent[0] || len(got.Avg) != dim || !bitsEqual(got.Avg, want.Avg) {
			t.Errorf("n=%d k=%d mode %d: Finish(avg) did not write Finish(nil)'s average into avg[:dim]", c.N, c.K, c.Mode)
		}
		buf := make([]float64, dim+1)
		for i := range buf {
			buf[i] = float64(-i)
		}
		short := buf[: dim-1 : dim-1]
		got := finish(short)
		if &got.Avg[0] == &buf[0] || !bitsEqual(got.Avg, want.Avg) {
			t.Errorf("n=%d k=%d mode %d: Finish with a short avg did not make an average of its own", c.N, c.K, c.Mode)
		}
		for i, x := range buf {
			if x != float64(-i) {
				t.Fatalf("n=%d k=%d mode %d: Finish wrote %v at %d of a short avg of length %d", c.N, c.K, c.Mode, x, i, len(short))
			}
		}
	}
}

// accuse is peer from's accusation of contributor i, addressed to to.
func accuse(from, to, i int) transport.Message {
	return transport.Message{From: from, To: to, Kind: kindAccuse, ShareIdx: i, Payload: []float64{float64(i)}}
}

// TestAccusationReadAtTheSealDropsItsContributor: an accusation is the
// decision, not a bill for one. In a (4, 3) round under a range guard
// that no model trips, peer 3 is accused at every peer once all have
// sealed, and every peer drops it: the result counts contributors 0–2
// and excludes 3, and its average is, bit for bit, Run's with peer 3
// crashed before its shares (the others' shares are the same draws) —
// the plain mean of the others.
func TestAccusationReadAtTheSealDropsItsContributor(t *testing.T) {
	const n, dim, accused = 4, 6, 3
	cfg := Config{N: n, K: 3, Mode: ModeLeader, Leader: 0, Guard: &Guard{ShareBound: 1e3}}
	models := randModels(rand.New(rand.NewSource(101)), n, dim)
	cfg.Rng = rand.New(rand.NewSource(102))
	want, err := Run(transport.NewMesh(n, nil), cfg, models, CrashPlan{accused: BeforeShares})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rng = nil
	h := newHandRound(t, cfg, dim, nil)
	h.at = func(point int) {
		for j := 0; point == n && j < n; j++ {
			if h.step(accuse((j+1)%n, j, accused)) {
				t.Fatalf("peer %d discarded an accusation read at the seal", j)
			}
		}
	}
	h.shares(models, rand.New(rand.NewSource(102)))
	h.report()
	got := h.finish()
	for j := range h.peers {
		if p := &h.peers[j]; !slices.Equal(p.contributors, []int{0, 1, 2}) || !slices.Equal(p.excluded, []int{accused}) {
			t.Fatalf("peer %d kept %v and excluded %v, want [0 1 2] and [%d]", j, p.contributors, p.excluded, accused)
		}
	}
	if !slices.Equal(got.Contributors, []int{0, 1, 2}) || !slices.Equal(got.Excluded, []int{accused}) {
		t.Fatalf("contributors %v excluded %v, want [0 1 2] and [%d]", got.Contributors, got.Excluded, accused)
	}
	if !bitsEqual(got.Avg, want.Avg) {
		t.Fatalf("average %v, Run without peer %d %v", got.Avg, accused, want.Avg)
	}
	if d := maxAbsDiff(got.Avg, trueMean(models, []int{0, 1, 2})); d > 1e-9 {
		t.Fatalf("average is %g off the plain mean of the others", d)
	}
	if h.invalid != 0 {
		t.Fatalf("%d messages discarded, want 0", h.invalid)
	}
}

// TestAccusationOutsideItsWindowChangesNothing: an accusation is taken
// only in a round the range guard screens, and only before its reader
// has accepted or summed a subtotal or checked that none is missing,
// since later it would take a subtraction. Elsewhere it is counted
// invalid. An accusation of peer 3 in a (4, 3) round — read at every
// peer at the seal of an unguarded round, or in a guarded one at the
// collector once the subtotals it is sent have arrived, or after it
// checked that none is missing — leaves the round bit-identical to one
// without it.
func TestAccusationOutsideItsWindowChangesNothing(t *testing.T) {
	const n, dim, accused = 4, 6, 3
	models := randModels(rand.New(rand.NewSource(103)), n, dim)
	for _, c := range []struct {
		name    string
		guard   *Guard
		missing bool // the collector checks for a missing subtotal first
	}{
		{"unguarded, at the seal", nil, false},
		{"guarded, after the subtotals arrive", &Guard{ShareBound: 1e3}, false},
		{"guarded, after the check", &Guard{ShareBound: 1e3}, true},
	} {
		cfg := Config{N: n, K: 3, Mode: ModeLeader, Leader: 0, Guard: c.guard}
		round := func(forged bool) *Result {
			h := newHandRound(t, cfg, dim, nil)
			h.at = func(point int) {
				for j := 0; forged && c.guard == nil && point == n && j < n; j++ {
					if !h.step(accuse((j+1)%n, j, accused)) {
						t.Fatalf("%s: peer %d took an accusation in an unguarded round", c.name, j)
					}
				}
			}
			h.shares(models, rand.New(rand.NewSource(104)))
			h.report()
			if c.missing {
				if err := h.peers[cfg.Leader].Missing(); err != nil {
					t.Fatal(err)
				}
			}
			if forged && c.guard != nil && !h.step(accuse(1, cfg.Leader, accused)) {
				t.Fatalf("%s: the collector took an accusation", c.name)
			}
			return h.finish()
		}
		clean, got := round(false), round(true)
		if !bitsEqual(got.Avg, clean.Avg) || !slices.Equal(got.Contributors, allPeers(n)) || len(got.Excluded) != 0 {
			t.Fatalf("%s: the accusation moved the round: %+v, clean %+v", c.name, got, clean)
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
				{From: 2, To: 1, Kind: kindClaims, ShareIdx: -1, Payload: junk(4 * dim)}, // claims, not from the leader
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

// untiledAverage is Finish's average as it was before the tiles: per
// share index, ascending, the subtotal Finish takes (its collector's one
// copy, or under the cross-check the median of its copies) added into a
// zeroed vector in a pass of its own, then a pass that scales by
// 1/contributors.
func untiledAverage(t *testing.T, p *Peer) []float64 {
	avg := make([]float64, p.dim)
	for s := 0; s < p.cfg.N; s++ {
		cands, _, _ := p.candidates(s)
		sub := cands[0]
		if p.cfg.crossChecks() {
			var err error
			if sub, err = (fl.CoordinateMedian{}).Aggregate(cands, nil); err != nil {
				t.Fatal(err)
			}
		}
		for x, v := range sub {
			avg[x] += v
		}
	}
	inv := 1.0 / float64(len(p.contributors))
	for x := range avg {
		avg[x] *= inv
	}
	return avg
}

// sameBits compares two results bit for bit, except that any two NaNs
// match: when both operands of an add are NaN, which payload the sum
// carries depends on the operand order the compiler picks for the
// commutative add, which neither loop controls.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// tileEdgeDims are the dimensions a tiled kernel is checked at: one
// coordinate, a tile short by one, one tile, one over, three tiles with a
// ragged tail, and 64 tiles with one, past the stream threshold, so an
// AVX2 CPU checks the stream body there and the Go body everywhere else.
var tileEdgeDims = []int{1, tensor.Tile - 1, tensor.Tile, tensor.Tile + 1, 3*tensor.Tile + 5, 64*tensor.Tile + 5}

// plant writes −0 and then +Inf, NaN and −Inf into the four coordinates
// on each side of every tile boundary of v and of its two ends, where v
// has them; shift rotates the three non-finite values.
func plant(v []float64, shift int) {
	odd := [3]float64{math.Inf(1), math.NaN(), math.Inf(-1)}
	for b := 0; ; b += tensor.Tile {
		b = min(b, len(v))
		for _, side := range []int{b - 4, b} {
			for o := 0; o < 4; o++ {
				if i := side + o; i >= 0 && i < len(v) {
					v[i] = math.Copysign(0, -1)
					if o > 0 {
						v[i] = odd[(o+shift)%3]
					}
				}
			}
		}
		if b == len(v) {
			return
		}
	}
}

// TestTiledFinishMatchesUntiled: Finish adds every subtotal into one tile
// of the average before it moves to the next, or streams a long average
// past the caches; with −0, ±Inf and NaN planted around every tile
// boundary of every subtotal — differently per share index, so +Inf
// meets −Inf — its average is the untiled loop's, bit for bit, on a collector that recovers a crashed owner's subtotal,
// on the cross-check's median path and under Alg. 2's broadcast.
// Coordinate 0, −0 in every subtotal, still averages to +0.
func TestTiledFinishMatchesUntiled(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		kill int // a peer that crashes once the shares are over, −1 for none
	}{
		{"recovery", Config{N: 4, K: 2, Mode: ModeLeader, Leader: 3}, 2},
		{"cross-check", Config{N: 5, K: 3, Mode: ModeLeader, Leader: 1, Guard: &Guard{CrossCheck: true}}, -1},
		{"broadcast", Config{N: 4, K: 4, Mode: ModeBroadcast}, -1},
	} {
		for _, dim := range tileEdgeDims {
			h := newHandRound(t, tc.cfg, dim, nil)
			h.shares(randModels(rand.New(rand.NewSource(int64(dim))), tc.cfg.N, dim), rand.New(rand.NewSource(91)))
			// A subtotal is summed when first asked for, over whatever its
			// slot held, so the values are planted after that.
			for j := range h.peers {
				p := &h.peers[j]
				for s, a := range p.slot {
					if a >= 0 && p.subtotal(s) != nil {
						plant(p.acc[a*dim:(a+1)*dim], s)
					}
				}
			}
			if tc.kill >= 0 {
				h.kill(tc.kill)
			}
			h.report()
			want := untiledAverage(t, &h.peers[h.collector()])
			got := h.finish()
			for x := range want {
				if !sameBits(got.Avg[x], want[x]) {
					t.Fatalf("%s dim %d: Avg[%d] = %v, untiled %v", tc.name, dim, x, got.Avg[x], want[x])
				}
			}
			if tc.kill >= 0 && !slices.Equal(got.Recovered, []int{tc.kill}) {
				t.Fatalf("%s dim %d: recovered %v, want [%d]", tc.name, dim, got.Recovered, tc.kill)
			}
			if dim > 1 && math.Float64bits(got.Avg[0]) != 0 {
				t.Fatalf("%s dim %d: an all −0 coordinate averaged to %v, want +0", tc.name, dim, got.Avg[0])
			}
		}
	}
}

// foldInto is the subtotal loop as it was while shares were folded as
// they arrived, kept as sum's reference: one contributor's share added
// into the running subtotal in a pass of its own. The first fold of a
// round writes 0 + v over whatever the last round left there.
func foldInto(acc, share []float64, first bool) {
	acc = acc[:len(share)]
	if first {
		for x, v := range share {
			acc[x] = 0 + v
		}
		return
	}
	for x, v := range share {
		acc[x] += v
	}
}

// TestSumMatchesFoldByFold: tensor.SumInto, the subtotal's sum, which
// walks its destination in tiles and adds up to three shares a sweep (or
// streams a long one past the caches in one sweep), gives the
// fold-by-fold subtotal bit for bit. It is checked for 1–7 contributors,
// so every remainder of the three-share sweep falls on a first sweep and
// on a later one, at every tileEdgeDims size, with −0, ±Inf and NaN
// planted around every tile edge of every share — rotated per share, so
// +Inf meets −Inf — and over a destination full of last round's values. A one-contributor slot of −0 sums to +0.
func TestSumMatchesFoldByFold(t *testing.T) {
	for _, dim := range tileEdgeDims {
		rng := rand.New(rand.NewSource(int64(dim)))
		for n := 1; n <= 7; n++ {
			terms := randModels(rng, n, dim)
			for i, v := range terms {
				plant(v, i)
			}
			want := make([]float64, dim)
			for i, v := range terms {
				foldInto(want, v, i == 0)
			}
			got := randModels(rng, 1, dim)[0]
			tensor.SumInto(got, terms)
			for x := range want {
				if !sameBits(got[x], want[x]) {
					t.Fatalf("dim %d, %d contributors: sum[%d] = %v, fold by fold %v", dim, n, x, got[x], want[x])
				}
			}
		}
		negZero, got := make([]float64, dim), randModels(rng, 1, dim)[0]
		for x := range negZero {
			negZero[x] = math.Copysign(0, -1)
		}
		tensor.SumInto(got, [][]float64{negZero})
		for x, v := range got {
			if math.Float64bits(v) != 0 {
				t.Fatalf("dim %d: a lone −0 share summed to %v at %d, want +0", dim, v, x)
			}
		}
	}
}

// TestUnaskedReplicaIsNeverSummed: a subtotal is summed into its slot
// when somebody needs it as a vector and not before. In a (3,2) round
// led by peer 0, peer j holds indices j and j+1 (mod 3); the leader's
// own 0 and 1 are summed inside its average, not into their slots, and
// it is sent 2 by its owner, so of the six slots one is summed, and none
// by the time every peer has sealed, nor for a recovery request from a
// peer that is not the leader. With owner 2 down once the shares are
// over, the leader asks peer 1, the first replica holder, for index 2:
// peer 1 then sums that slot and nothing else, and peer 2 sums nothing.
func TestUnaskedReplicaIsNeverSummed(t *testing.T) {
	const dim = 5
	cfg := Config{N: 3, K: 2, Mode: ModeLeader, Leader: 0}
	summed := func(h *handRound) (got [][2]int) { // (peer, share index)
		for j := range h.peers {
			p := &h.peers[j]
			for s, a := range p.slot {
				if a >= 0 && p.summed[a] {
					got = append(got, [2]int{j, s})
				}
			}
		}
		return got
	}
	for _, tc := range []struct {
		name string
		kill int // −1 for none
		want [][2]int
	}{
		{"fault-free", -1, [][2]int{{2, 2}}},
		{"owner 2 down", 2, [][2]int{{1, 2}}},
	} {
		h := newHandRound(t, cfg, dim, nil)
		h.shares(randModels(rand.New(rand.NewSource(95)), cfg.N, dim), rand.New(rand.NewSource(96)))
		if !h.step(transport.Message{From: 2, To: 1, Kind: KindRecoveryReq, ShareIdx: 1, Payload: []float64{1}}) {
			t.Fatalf("%s: peer 1 answered a recovery request from a peer that does not lead", tc.name)
		}
		if got := summed(h); len(got) != 0 {
			t.Fatalf("%s: slots %v summed by the end of the share exchange, want none", tc.name, got)
		}
		if tc.kill >= 0 {
			h.kill(tc.kill)
		}
		h.report()
		res := h.finish()
		if got := summed(h); !slices.Equal(got, tc.want) {
			t.Fatalf("%s: slots %v summed, want %v", tc.name, got, tc.want)
		}
		if tc.kill >= 0 && !slices.Equal(res.Recovered, []int{tc.kill}) {
			t.Fatalf("%s: recovered %v, want [%d]", tc.name, res.Recovered, tc.kill)
		}
	}
}

// TestLeaderSumsItsOwnSubtotalsInsideTheAverage: an unguarded leader's
// own subtotals, which nobody else asks for, are summed inside its one
// pass over the average and never into their slots. With every
// unsummed slot of its acc NaN before Finish, the slots still hold NaN
// after it, and Result.Avg is the sum-then-average reference bit for
// bit — each subtotal summed into a zeroed vector, then all of them
// added and scaled — fault-free and with a crashed owner's subtotal
// recovered. Where a slot is read as a vector — sent under Alg. 2, the
// cross-check's median, a subtotal liar's lie — the collector's own
// slots are all summed by the end of Finish. The dimensions run the Go
// body and, on an AVX2 CPU, the stream body.
func TestLeaderSumsItsOwnSubtotalsInsideTheAverage(t *testing.T) {
	leader := Config{N: 4, K: 2, Mode: ModeLeader, Leader: 3}
	liar := func(b Behavior) Config {
		c := leader
		c.Adversary = AdversaryPlan{3: b}
		return c
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		kill   int // a peer that crashes once the shares are over, −1 for none
		inside bool
	}{
		{"fault-free", leader, -1, true},
		{"owner down", leader, 2, true},
		{"broadcast", Config{N: 4, K: 2, Mode: ModeBroadcast}, -1, false},
		{"cross-check", Config{N: 5, K: 3, Mode: ModeLeader, Leader: 1, Guard: &Guard{CrossCheck: true}}, -1, false},
		{"inflating leader", liar(ByzInflateSubtotal), -1, false},
		{"zeroing leader", liar(ByzZeroSubtotal), -1, false},
	} {
		for _, dim := range []int{9, tensor.Tile + 1, 64*tensor.Tile + 5} {
			h := newHandRound(t, tc.cfg, dim, nil)
			h.shares(randModels(rand.New(rand.NewSource(int64(dim))), tc.cfg.N, dim), rand.New(rand.NewSource(97)))
			if tc.kill >= 0 {
				h.kill(tc.kill)
			}
			h.report()
			p := &h.peers[h.collector()]
			want := make([]float64, dim)
			for s := 0; s < tc.cfg.N; s++ {
				cands, own, _ := p.candidates(s)
				sub := make([]float64, dim)
				for i, term := range own {
					foldInto(sub, term, i == 0)
				}
				if own == nil {
					copy(sub, cands[0])
				}
				for x, v := range sub {
					want[x] += v
				}
			}
			for x := range want {
				want[x] *= 1.0 / float64(len(p.contributors))
			}
			for a, summed := range p.summed {
				for x := a * dim; !summed && x < (a+1)*dim; x++ {
					p.acc[x] = math.NaN()
				}
			}
			got := h.finish()
			for s, a := range p.slot {
				if a < 0 {
					continue
				}
				slot := p.acc[a*dim : (a+1)*dim]
				nan := slices.IndexFunc(slot, math.IsNaN)
				switch {
				case tc.inside && (p.summed[a] || slices.ContainsFunc(slot, func(v float64) bool { return v == v })):
					t.Fatalf("%s dim %d: the leader's slot of subtotal %d was written (summed %v)", tc.name, dim, s, p.summed[a])
				case !tc.inside && (!p.summed[a] || nan >= 0):
					t.Fatalf("%s dim %d: the collector's slot of subtotal %d is not summed (summed %v, NaN at %d)", tc.name, dim, s, p.summed[a], nan)
				}
			}
			if nan := slices.IndexFunc(got.Avg, math.IsNaN); nan >= 0 {
				t.Fatalf("%s dim %d: Avg[%d] is NaN: a slot's sentinel reached the average", tc.name, dim, nan)
			}
			if !tc.inside {
				continue
			}
			if !bitsEqual(got.Avg, want) {
				t.Fatalf("%s dim %d: Avg is not the sum-then-average reference", tc.name, dim)
			}
			if tc.kill >= 0 && !slices.Equal(got.Recovered, []int{tc.kill}) {
				t.Fatalf("%s dim %d: recovered %v, want [%d]", tc.name, dim, got.Recovered, tc.kill)
			}
		}
	}
}
