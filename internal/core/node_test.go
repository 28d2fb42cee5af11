package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/sac"
	"repro/internal/transport"
)

// handRound steps one node per peer through a whole round with no System
// around them: the smallest two-layer driver there is. Every live
// subgroup runs a real SAC through sac.Schedule on the loop, then the
// FedAvg layer runs, with the upper SAC under SecureUpper. As a SAC's
// fabric it calls at before every delivery the schedule asks for, and
// the round calls it after each SAC, after each upload and at the end,
// so a test sees — and can add to — every point of a round.
type handRound struct {
	loop
	p     *plan
	at    func()
	upper bool // the running SAC is the upper one; loop.members is nil between SACs
}

func newHandRound(p *plan, at func()) *handRound {
	n := p.offsets[len(p.offsets)-1]
	h := &handRound{p: p, at: at}
	h.nodes, h.inbox, h.down, h.ids = make([]node, n), make([][]message, n), make([]bool, n), make([]int, n)
	for i := range h.ids {
		h.ids[i] = i
	}
	h.meter = transport.NewMeter(n, transport.NewCounter(), nil)
	return h
}

func (h *handRound) Deliver(j int) error {
	h.at()
	return h.loop.Deliver(j)
}

// secure is loop.schedule with h as the SAC's fabric, on a working set
// of its own.
func (h *handRound) secure(members []int, upper bool, cfg sac.Config, models [][]float64) error {
	peers, err := new(sac.Scratch).Peers(cfg, len(models[0]))
	if err != nil {
		return err
	}
	for j, id := range members {
		h.nodes[id].join(upper, &peers[j], members)
	}
	h.members, h.upper = members, upper
	_, err = sac.Schedule(h, peers, cfg, models, nil, nil)
	h.members = nil
	for _, id := range members {
		h.nodes[id].leave(upper)
		h.inbox[id] = h.inbox[id][:0]
	}
	return err
}

// round runs every live subgroup's SAC, n-out-of-n with its leader
// collecting, then the FedAvg layer, led by the plan's fed, which is
// armed from the round's start: the leaders of order upload in that
// order, each delivered before the next, and the FedAvg leader's timeout
// fires once the loop is quiet. It returns the FedAvg leader.
func (h *handRound) round(models [][]float64, order []int) (*node, error) {
	p := h.p
	h.begin(p)
	leader := &h.nodes[p.leaders[p.fed]]
	leader.Lead(make([][]float64, len(p.leaders)), make([]float64, p.dim), new(compress.Delta))
	for g, l := range p.leaders {
		lo, hi := p.offsets[g], p.offsets[g+1]
		cfg := sac.Config{N: hi - lo, K: hi - lo, Leader: l - lo, Mode: sac.ModeLeader, Rng: rand.New(rand.NewSource(int64(g)))}
		if err := h.secure(h.ids[lo:hi], false, cfg, models[lo:hi]); err != nil {
			return nil, err
		}
		h.at()
	}
	for _, g := range order {
		h.nodes[p.leaders[g]].Upload(make([]float64, p.dim), new(compress.Delta))
		if err := h.settle(nil); err != nil {
			return leader, err
		}
		h.at()
	}
	leader.Expire()
	if err := h.settle(nil); err != nil {
		return leader, err
	}
	if p.cfg.SecureUpper && leader.err == nil && leader.global == nil && len(leader.taken) > 0 {
		upper := leader.taken
		if !slices.Contains(upper, p.fed) {
			upper = append(slices.Clip(upper), p.fed)
		}
		members, inputs := make([]int, len(upper)), make([][]float64, len(upper))
		for i, g := range upper {
			members[i], inputs[i] = p.leaders[g], h.nodes[p.leaders[g]].upper
			if i == len(leader.taken) {
				inputs[i] = make([]float64, p.dim) // the FedAvg leader's, none of its own taken
			}
		}
		cfg := sac.Config{N: len(inputs), K: len(inputs), Leader: slices.Index(upper, p.fed), Mode: sac.ModeLeader, Rng: rand.New(rand.NewSource(99))}
		if err := h.secure(members, true, cfg, inputs); err != nil {
			return leader, err
		}
		if err := h.settle(nil); err != nil {
			return leader, err
		}
	}
	h.at()
	return leader, nil
}

// TestEndedSACAnswersNothing: once a subgroup's SAC is over its nodes
// hold no peer in it. Both subgroups here have one shape, so they run on
// one working set, and a node that kept its peer would hold the one the
// second subgroup used: a recovery request to it, or a subtotal to its
// leader, after the round is invalid and answered from nobody's
// subtotals.
func TestEndedSACAnswersNothing(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{3, 3}, K: []int{2}}, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AggregateRound(randModels(rand.New(rand.NewSource(31)), 6, 4), RoundSpec{}); err != nil {
		t.Fatal(err)
	}
	l := &sys.loop
	for _, m := range []message{
		{From: 0, To: 1, Kind: sac.KindRecoveryReq, ShareIdx: 1, Model: []float64{1}},
		{From: 2, To: 0, Kind: sac.KindSubtotal, ShareIdx: 2, Model: make([]float64, 4)},
	} {
		l.nodes[m.To].Step(m)
		if sent, invalid, err := l.flush(m.To); sent != 0 || invalid != 1 || err != nil {
			t.Errorf("%+v after the SAC: %d sent, %d invalid, err %v", m, sent, invalid, err)
		}
	}
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// nodeKinds are what FuzzNodeStep hands a node: the three FedAvg-layer
// kinds, every SAC kind of a crash-only round, sac's range-guard
// accusation, garbage, and fuzzExpire, which fires the node's timeout
// (Expire) instead of stepping it.
var nodeKinds = []string{KindUpload, KindDownload, KindBroadcast, sac.KindShare, sac.KindSubtotal,
	sac.KindRecoveryReq, sac.KindRecovery, "sac/accuse", "", fuzzExpire}

const fuzzExpire = "expire"

// FuzzNodeStep is FuzzPeerStep for the whole round node, in rounds whose
// subgroups upload in any order, some of them not at all, whose FedAvg
// leader wants any number of uploads from one to all, and whose FedAvg
// leader's own subgroup may or may not be among the first to arrive.
// Forged messages are handed to the nodes at every point of a round —
// before each delivery of every SAC, after each SAC, after each upload,
// and once the global model is out — from any peer or from no peer at
// all, of any kind, naming either SAC and any share index, with dense
// payloads or compressed blocks of any size and claimed dimension, and
// any node's timeout may fire at any of those points. No sequence may
// panic a node, make it allocate in proportion to what a message claims,
// or let the FedAvg leader take more uploads than it wants, a second
// upload of one subgroup, one from a peer that does not lead its
// subgroup or from no subgroup, or any once it has combined; its timeout
// does nothing before the first upload. Nor may a node take the global
// model from anyone but the FedAvg leader (at a subgroup leader) or its
// subgroup's leader. A sac/* message for a SAC the node holds no peer in
// — one that has ended, or that it is not in — is counted invalid and
// answers nothing, least of all from the subtotals of the peer another
// subgroup now holds. When every injection was discarded, every node's
// global model is bit-identical to an undisturbed round's, and that
// one is the count-weighted FedAvg of the SAC averages of the subgroups
// the FedAvg leader took: to 1e-12, or under compression within the
// compression bounds of the uploads it decoded and of the global model.
// The wantRaw byte sets how many uploads the FedAvg leader wants: 0 is
// every one that is sent.
func FuzzNodeStep(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0), []byte{0, 1, 0, 3, 0, 1, 0})
	f.Add(int64(2), uint8(4), uint8(3), uint8(0), []byte{3, 0, 0, 3, 1, 2, 0, 4, 2, 1, 3, 0, 0, 1, 6, 5, 2, 3, 0, 0, 2})
	f.Add(int64(3), uint8(2), uint8(5), uint8(0), []byte{255, 255, 255, 255, 255, 255, 255})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(5), uint8(3), uint8(7), uint8(0), []byte{2, 0, 0, 3, 2, 9, 1, 130, 5, 0, 250, 1, 1, 130, 3, 3, 2, 3, 0, 4, 3})
	f.Add(int64(6), uint8(4), uint8(9), uint8(0), []byte{0, 3, 1, 3, 0, 0, 0, 1, 9, 2, 3, 0, 0, 0, 12, 2, 0, 3, 0, 0, 0})
	// Kept as corpus: none of these three catches a mutant of node.upload
	// or node.Step; the seeds below do.
	f.Add(int64(15), uint8(2), uint8(5), uint8(0), []byte("012B000"))
	f.Add(int64(36), uint8(1), uint8(7), uint8(0), []byte("1020000"))
	f.Add(int64(-123), uint8(1), uint8(1), uint8(0), []byte("0000000A9B00\x00\x00"))
	// Two subgroups, the FedAvg leader peer 3: between the two
	// participants' uploads, an upload of the round's size from peer 1, a
	// follower of the participant that has not uploaded yet (a
	// node.upload that skips the leader check takes it).
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{2, 3, 0, 3, 0, 16, 0})
	// At the same point: an upload from no peer, and plain, quantized and
	// sparse uploads of two weights from peer 0, that participant's leader.
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{0, 3, 0, 3, 0, 16, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{1, 3, 0, 2, 0, 16, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{1, 3, 0, 2, 1, 16, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{1, 3, 0, 2, 2, 16, 0})
	// The same round: from the FedAvg leader before the SACs, a download
	// of the wrong size to peer 0, the other subgroup's leader, and one of
	// the right size to its follower, peer 1; once the round is over, a
	// second global model to peer 0.
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{4, 0, 1, 2, 0, 0, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{4, 1, 1, 3, 0, 0, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{4, 0, 1, 3, 0, 255, 0})
	// Three subgroups, the FedAvg leader peer 4: a second upload from peer
	// 0, the leader of the participant that has uploaded already.
	f.Add(int64(9), uint8(2), uint8(0), uint8(0), []byte{1, 4, 0, 3, 0, 30, 0})
	// At the end of the round, in one subgroup of three led by peer 0, a
	// subtotal from peer 1 to its leader and a recovery request from the
	// leader to peer 2: the SAC has ended, so both are invalid and neither
	// is answered.
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), []byte{2, 0, 4, 3, 0, 255, 2, 1, 2, 5, 1, 0, 255, 1})
	// A FedAvg leader whose subgroup is not among the uploaders (the
	// mode's top bit), under SecureUpper with two uploaders and with one,
	// and under top-k.
	f.Add(int64(1), uint8(2), uint8(131), uint8(0), []byte{})
	f.Add(int64(1), uint8(1), uint8(131), uint8(0), []byte{})
	f.Add(int64(1), uint8(2), uint8(129), uint8(0), []byte{})
	// Shares, subtotals and recovery requests inside the SACs.
	f.Add(int64(8), uint8(2), uint8(3), uint8(0), []byte{1, 0, 3, 6, 0, 1, 0, 0, 1, 6, 6, 0, 3, 1, 0, 2, 5, 1, 0, 5, 2, 3, 4, 7, 0, 3, 129, 1})
	// Three subgroups uploading in the order 0, 2, 1 to the FedAvg leader,
	// peer 4, which wants one: subgroups 2 and 1 arrive late, and so does
	// a second upload from peer 5, subgroup 2's leader, once it has
	// combined. Wanting two, a second upload from peer 0, whose first it
	// has taken.
	f.Add(int64(9), uint8(2), uint8(0), uint8(1), []byte{6, 4, 0, 3, 0, 30, 0})
	f.Add(int64(9), uint8(2), uint8(0), uint8(2), []byte{1, 4, 0, 3, 0, 30, 0})
	// Two subgroups, the FedAvg leader peer 3: its timeout fires inside the
	// first SAC, before any upload; between the two uploads, where it
	// combines the one it holds and the second arrives late; and once the
	// round is over.
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{0, 3, 9, 0, 0, 0, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{0, 3, 9, 0, 0, 16, 0})
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), []byte{0, 3, 9, 0, 0, 255, 0})
	f.Fuzz(func(t *testing.T, seed int64, mRaw, modeRaw, wantRaw uint8, raw []byte) {
		const dim = 3
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%4
		cfg := Config{Sizes: make([]int, m)}
		switch modeRaw % 4 {
		case 1:
			cfg.Compression = compress.Config{Scheme: compress.TopK, Frac: 0.5}
		case 2:
			cfg.Compression = compress.Config{Scheme: compress.Quant8}
		case 3:
			cfg.SecureUpper = true
		}
		p := &plan{cfg: &cfg, dim: dim, offsets: make([]int, m+1), leaders: make([]int, m)}
		subs := make([]int, m)
		for g := range cfg.Sizes {
			cfg.Sizes[g] = 1 + rng.Intn(4)
			p.offsets[g+1] = p.offsets[g] + cfg.Sizes[g]
			p.leaders[g] = p.offsets[g] + rng.Intn(cfg.Sizes[g])
			subs[g] = g
		}
		n := p.offsets[m]
		rng.Shuffle(m, func(a, b int) { subs[a], subs[b] = subs[b], subs[a] })
		order := subs[:1+rng.Intn(m)]
		p.fed = order[rng.Intn(len(order))]
		if modeRaw >= 128 && len(order) < m {
			p.fed = subs[m-1] // a FedAvg leader whose subgroup does not upload
		}
		p.want = 1 + (len(order)-1+int(wantRaw))%m
		models := make([][]float64, n)
		for i := range models {
			models[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}

		// Seven bytes a message: from (one short of every peer and one past
		// it), to, kind, payload length (stretched when the top bit is
		// set), block (none, quantized or sparse, its dimension from the
		// length), the point it arrives at (counted through the round;
		// past the last point is the end), and the SAC it names (top bit:
		// the upper one) with its share index.
		var inject [][]message
		injected := 0
		for i := 0; i+7 <= len(raw) && injected < 32; i += 7 {
			msg := message{
				From:     int(raw[i])%(n+2) - 1,
				To:       int(raw[i+1]) % n,
				Kind:     nodeKinds[int(raw[i+2])%len(nodeKinds)],
				Weight:   float64(raw[i+5]),
				Upper:    raw[i+6] >= 128,
				ShareIdx: int(raw[i+6]%128)%(n+2) - 1,
			}
			size := int(raw[i+3]) % (2*dim + 1)
			if raw[i+3] >= 128 {
				size = size*n*dim + int(raw[i+3])*64
			}
			payload := make([]float64, size)
			for d := range payload {
				payload[d] = rng.Float64() * 100
			}
			switch raw[i+4] % 3 {
			case 0:
				msg.Model = payload
			case 1:
				if d, err := (compress.Config{Scheme: compress.Quant8}).Compress(payload); err == nil {
					msg.Block = &d
				}
			case 2:
				frac := 1.0 // keeps 1–3 coordinates
				if size > 0 {
					frac = float64(min(size, 1+int(raw[i+4])%3)) / float64(size)
				}
				if d, err := (compress.Config{Scheme: compress.TopK, Frac: frac}).Compress(payload); err == nil {
					msg.Block = &d
				}
			}
			point := int(raw[i+5])
			inject = append(inject, make([][]message, max(0, point+1-len(inject)))...)
			inject[point] = append(inject[point], msg)
			injected++
		}

		run := func(forged bool) (*handRound, *node, int) {
			var h *handRound
			point, rejected := 0, 0
			step := func(msgs []message) {
				before := allocated()
				for _, msg := range msgs {
					to := &h.nodes[msg.To]
					taken, waiting, global := len(to.taken), to.waiting, to.global
					running := slices.Contains(h.members, msg.To) && h.upper == msg.Upper
					expire := msg.Kind == fuzzExpire
					sacKind := !expire && msg.Kind != KindUpload && msg.Kind != KindDownload && msg.Kind != KindBroadcast
					if expire {
						to.Expire()
					} else {
						to.Step(msg) // must not panic
					}
					sent, invalid, err := h.flush(msg.To)
					switch {
					case sacKind && !running && (invalid != 1 || sent != 0):
						t.Fatalf("node %d is in no running SAC that %+v names, yet %d messages were invalid and %d sent", msg.To, msg, invalid, sent)
					case expire && waiting > 0 && taken > 0:
						// The FedAvg leader combined early: the round may differ.
					case expire:
						if sent != 0 || to.waiting != waiting {
							t.Fatalf("node %d's timeout fired with %d uploads taken and %d awaited: it sent %d messages and now awaits %d", msg.To, taken, waiting, sent, to.waiting)
						}
						rejected++
					case len(to.taken) != taken:
						// Taken: at the FedAvg leader while it waits, the first upload
						// of a subgroup's leader, and every model the FedAvg leader
						// holds is of the round's size.
						g := p.group(msg.From)
						if msg.Kind != KindUpload || g < 0 || g >= m || msg.From != p.leaders[g] || msg.To != p.leaders[p.fed] ||
							waiting == 0 || len(to.taken) != taken+1 || len(to.taken) > p.want || slices.Contains(to.taken[:taken], g) ||
							slices.ContainsFunc(to.models, func(v []float64) bool { return v != nil && len(v) != dim }) {
							t.Fatalf("the FedAvg leader took %+v", msg)
						}
					case global == nil && to.global != nil && !sacKind:
						// Taken: the global model, of the round's size, from the one
						// peer that may send it here.
						g := p.group(msg.To)
						if msg.From < 0 || msg.From == msg.To || len(to.global) != dim || !(msg.Kind == KindBroadcast && msg.From == p.leaders[g] ||
							msg.Kind == KindDownload && msg.From == p.leaders[p.fed] && msg.To == p.leaders[g]) {
							t.Fatalf("node %d took %+v", msg.To, msg)
						}
					case !sacKind, invalid == 1 && sent == 0:
						rejected++
					}
					if err != nil {
						return // a forgery may make the round fail; it may not panic it
					}
				}
				// A Step decodes into a vector of the round's size at most; it
				// never sizes anything by what a message claims.
				if grew, budget := allocated()-before, uint64(len(msgs)*(256+64*dim)+32<<10); grew > budget {
					t.Fatalf("%d injected messages made their nodes allocate %d bytes, budget %d", len(msgs), grew, budget)
				}
			}
			h = newHandRound(p, func() {
				if forged && point < len(inject) {
					step(inject[point])
				}
				point++
			})
			fed, err := h.round(models, order)
			if forged {
				for ; point < len(inject); point++ {
					step(inject[point]) // the points past the round's last are its end
				}
			}
			if err == nil && len(fed.taken) > p.want {
				t.Fatalf("the FedAvg leader took %d uploads, wanting %d", len(fed.taken), p.want)
			}
			return h, fed, rejected
		}
		undisturbed, want, _ := run(false)
		if want.global == nil {
			t.Fatalf("the undisturbed round has no global model (err %v)", want.err)
		}
		fedAvg, total, upload := make([]float64, dim), 0.0, 0.0
		for _, g := range want.taken {
			r := undisturbed.nodes[p.leaders[g]].collected
			for x, v := range r.Avg {
				fedAvg[x] += float64(len(r.Contributors)) * v
			}
			total += float64(len(r.Contributors))
			if c := cfg.Compression; c.Enabled() && g != p.fed { // the FedAvg leader's own upload stays exact
				d, err := c.Compress(r.Avg)
				if err != nil {
					t.Fatal(err)
				}
				upload = max(upload, d.Bound.MaxCoordErr)
			}
		}
		tol := 1e-12 + upload
		if want.bound != nil {
			tol += want.bound.MaxCoordErr
		}
		for x := range fedAvg {
			if fedAvg[x] /= total; !(math.Abs(want.global[x]-fedAvg[x]) <= tol) {
				t.Fatalf("the undisturbed global model %v is not the FedAvg of the SAC averages of subgroups %v, %v, to %g",
					want.global, want.taken, fedAvg, tol)
			}
		}
		h, got, rejected := run(true)
		if got == nil || rejected < injected {
			return // something was well-formed enough to be taken, or to fail a SAC
		}
		for i := range h.nodes {
			if !slices.EqualFunc(h.nodes[i].global, undisturbed.nodes[i].global, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("every injection was invalid, yet node %d holds %v (FedAvg leader's err %v), undisturbed %v", i, h.nodes[i].global, got.err, undisturbed.nodes[i].global)
			}
		}
	})
}
