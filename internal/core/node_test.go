package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/sac"
)

// handFedAvg steps one node per peer through the FedAvg layer of a round
// with no System around them: the smallest driver there is. Under
// SecureUpper it stands in for the upper SAC with the plain average of
// the inputs it diverts.
type handFedAvg struct {
	p      *plan
	nodes  []node
	inputs [][]float64
}

// pump delivers what node j wants sent, then what the receivers want
// sent in return, until nobody does.
func (h *handFedAvg) pump(j int) error {
	send, err := h.nodes[j].Ready()
	if err != nil {
		return err
	}
	for _, m := range slices.Clone(send) { // Ready's slice is the node's
		if h.p.cfg.SecureUpper && m.Kind == KindUpload {
			h.inputs, m.Model = append(h.inputs, m.Model), nil
		}
		h.nodes[m.To].Step(m)
		if err := h.pump(m.To); err != nil {
			return err
		}
	}
	return nil
}

// round runs the FedAvg layer over the subgroup results avgs[g] (each
// with every peer of its subgroup contributing), calling at(point) after
// the FedAvg leader is told whom it waits for (point 0), after the i-th
// participant's upload (point i) and once the global model is
// distributed (point len(participate)+1). It returns the FedAvg leader.
func (h *handFedAvg) round(avgs [][]float64, participate []int, at func(point int)) (*node, error) {
	for i := range h.nodes {
		h.nodes[i].Begin(i, h.p)
	}
	fedID := h.p.leaders[h.p.fed]
	fed := &h.nodes[fedID]
	fed.Lead(participate)
	h.inputs = h.inputs[:0]
	at(0)
	for i, g := range participate {
		r := &sac.Result{Avg: slices.Clone(avgs[g])}
		for c := 0; c < h.p.offsets[g+1]-h.p.offsets[g]; c++ {
			r.Contributors = append(r.Contributors, c)
		}
		h.nodes[h.p.leaders[g]].Upload(r)
		if err := h.pump(h.p.leaders[g]); err != nil {
			return fed, err
		}
		at(i + 1)
	}
	if len(h.inputs) > 1 && fed.err == nil && fed.global == nil {
		sum := make([]float64, h.p.dim)
		for _, in := range h.inputs {
			for d, x := range in {
				sum[d] += x / float64(len(h.inputs))
			}
		}
		fed.Secured(&sac.Result{Avg: sum, Contributors: make([]int, len(h.inputs))})
		if err := h.pump(fedID); err != nil {
			return fed, err
		}
	}
	at(len(participate) + 1)
	return fed, nil
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// nodeKinds are what FuzzNodeStep hands a node: the three FedAvg-layer
// kinds, a SAC kind, and garbage.
var nodeKinds = []string{KindUpload, KindDownload, KindBroadcast, sac.KindShare, ""}

// FuzzNodeStep is FuzzPeerStep for the FedAvg layer. Forged messages are
// handed to the nodes at every point of a round — before the first
// upload, after each, and once the global model is out — from any peer
// or from no peer at all, of any kind, with dense payloads or compressed
// blocks of any size and claimed dimension. No sequence may panic a
// node, make it allocate in proportion to what a message claims, or let
// the FedAvg leader take an upload twice, from a peer that does not lead
// its subgroup, from a subgroup that does not participate, or from no
// subgroup, or let a node take the global model from anyone but the
// FedAvg leader (at a subgroup leader) or its subgroup's leader; and when
// every injection was discarded, the global model is bit-identical to an
// undisturbed round's.
func FuzzNodeStep(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), []byte{0, 1, 0, 3, 0, 1})
	f.Add(int64(2), uint8(4), uint8(3), []byte{3, 0, 0, 3, 1, 2, 4, 2, 1, 3, 0, 0, 6, 5, 2, 3, 0, 0})
	f.Add(int64(3), uint8(2), uint8(5), []byte{255, 255, 255, 255, 255, 255})
	f.Add(int64(4), uint8(1), uint8(0), []byte{})
	f.Add(int64(5), uint8(3), uint8(7), []byte{2, 0, 0, 3, 2, 9, 130, 5, 0, 250, 1, 1, 3, 3, 2, 3, 0, 4})
	f.Add(int64(6), uint8(4), uint8(9), []byte{0, 3, 1, 3, 0, 0, 1, 9, 2, 3, 0, 0, 12, 2, 0, 3, 0, 0})
	// Found by fuzzing mutants: an upload from a follower, a second upload
	// from one leader, a broadcast from nobody into a degraded subgroup.
	f.Add(int64(15), uint8(2), uint8(5), []byte("012B00"))
	f.Add(int64(36), uint8(1), uint8(7), []byte("102000"))
	f.Add(int64(-123), uint8(1), uint8(1), []byte("0000000A9B00"))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, modeRaw uint8, raw []byte) {
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
		var live []int
		for g := range cfg.Sizes {
			cfg.Sizes[g] = 1 + rng.Intn(4)
			p.offsets[g+1] = p.offsets[g] + cfg.Sizes[g]
			p.leaders[g] = p.offsets[g] + rng.Intn(cfg.Sizes[g])
			if g > 0 && rng.Intn(4) == 0 {
				p.leaders[g] = -1 // degraded
			} else {
				live = append(live, g)
			}
		}
		n := p.offsets[m]
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		participate := live[:1+rng.Intn(len(live))]
		p.fed = participate[rng.Intn(len(participate))]
		avgs := make([][]float64, m)
		for g := range avgs {
			avgs[g] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}

		// Six bytes a message: from (one short of every peer and one past
		// it), to, kind, payload length (stretched when the top bit is
		// set), block (none, quantized or sparse, its dimension from the
		// length), and when it arrives.
		points := len(participate) + 2
		inject := make([][]message, points)
		injected := 0
		for i := 0; i+6 <= len(raw) && injected < 32; i += 6 {
			msg := message{
				From:   int(raw[i])%(n+2) - 1,
				To:     int(raw[i+1]) % n,
				Kind:   nodeKinds[int(raw[i+2])%len(nodeKinds)],
				Weight: float64(raw[i+5]),
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
				q, b, err := compress.Quantize(payload, 1, nil)
				if err == nil {
					msg.Block = &compress.Delta{Quant: &q, Bound: b}
				}
			case 2:
				s, b, err := compress.Sparsify(payload, min(size, 1+int(raw[i+4])%3), 0)
				if err == nil {
					msg.Block = &compress.Delta{Sparse: &s, Bound: b}
				}
			}
			inject[int(raw[i+5])%points] = append(inject[int(raw[i+5])%points], msg)
			injected++
		}

		run := func(forged bool) (*node, int) {
			h := &handFedAvg{p: p, nodes: make([]node, n)}
			rejected := 0
			fed, err := h.round(avgs, participate, func(point int) {
				if !forged {
					return
				}
				before := allocated()
				for _, msg := range inject[point] {
					to := &h.nodes[msg.To]
					waiting, global := to.waiting, to.global
					to.Step(msg) // must not panic
					switch {
					case to.waiting != waiting:
						// Taken: it is the first upload of a participant's leader.
						g := p.group(msg.From)
						if msg.Kind != KindUpload || g < 0 || g >= m || msg.From != p.leaders[g] ||
							!slices.Contains(participate, g) || msg.To != p.leaders[p.fed] || to.waiting != waiting-1 {
							t.Fatalf("the FedAvg leader took %+v", msg)
						}
					case global == nil && to.global != nil:
						// Taken: the global model, from the one peer that may send it here.
						g := p.group(msg.To)
						if msg.From < 0 || msg.From == msg.To || !(msg.Kind == KindBroadcast && msg.From == p.leaders[g] ||
							msg.Kind == KindDownload && msg.From == p.leaders[p.fed] && msg.To == p.leaders[g]) {
							t.Fatalf("node %d took %+v", msg.To, msg)
						}
					default:
						rejected++
					}
					if err := h.pump(msg.To); err != nil {
						return // a forgery may make the round fail; it may not panic it
					}
				}
				// A Step decodes into a vector of the round's size at most; it
				// never sizes anything by what a message claims.
				if grew, budget := allocated()-before, uint64(len(inject[point])*(256+64*dim)+32<<10); grew > budget {
					t.Fatalf("%d injected messages made their nodes allocate %d bytes, budget %d", len(inject[point]), grew, budget)
				}
			})
			if err == nil && fed.waiting < 0 {
				t.Fatalf("the FedAvg leader took %d uploads more than it waits for", -fed.waiting)
			}
			return fed, rejected
		}
		want, _ := run(false)
		if want.global == nil {
			t.Fatalf("the undisturbed round has no global model (err %v)", want.err)
		}
		got, rejected := run(true)
		if rejected < injected {
			return // something was well-formed enough to be taken
		}
		if got.global == nil || !slices.EqualFunc(got.global, want.global, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("every injection was invalid, yet the global model is %v (err %v), undisturbed %v", got.global, got.err, want.global)
		}
	})
}
