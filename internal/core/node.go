package core

import (
	"errors"
	"sort"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
)

// message is one FedAvg-layer message between peers. Model is a dense
// model; Block, when set, is the compressed encoding that crosses the
// wire instead. A compressed upload carries only its block, which the
// FedAvg leader decodes; a download or broadcast carries the block and
// the global model its sender decoded, which every receiver reads, as an
// in-memory SAC receiver reads its sender's share block. Weight is an
// upload's sample count, metadata in the clear as in Alg. 3.
type message struct {
	From, To int
	Kind     string
	Model    []float64
	Block    *compress.Delta
	Weight   float64
}

// Bytes is what m costs on the wire: its block's encoded size, or 8
// bytes a weight.
func (m message) Bytes() int64 {
	if m.Block != nil {
		return m.Block.EncodedBytes()
	}
	return int64(8 * len(m.Model))
}

// plan is what every node of a round knows before it starts. Subgroup g
// is peers offsets[g] ≤ i < offsets[g+1], led by peer leaders[g], or by
// nobody (−1) when it is degraded; fed is the subgroup whose leader
// leads the FedAvg layer.
type plan struct {
	cfg              *Config
	dim              int
	counts           []float64 // RoundSpec.SampleCounts
	offsets, leaders []int
	fed              int
}

// group is peer i's subgroup, outside [0,m) when i is no peer.
func (p *plan) group(i int) int { return sort.SearchInts(p.offsets, i+1) - 1 }

// node is one peer's side of Alg. 3 above its subgroup SAC: a subgroup
// leader uploads its SAC average to the FedAvg leader, which combines
// the uploads and sends the global model down to the other subgroup
// leaders, and each broadcasts it to its subgroup. Like sac.Peer it is
// Begin, then Step per received message, with what it wants sent read
// from Ready; it does no IO. What one peer cannot know comes from the
// driver (System.AggregateRound): a subgroup leader's SAC result
// (Upload), the FedAvg leader's participation set (Lead) and, under
// SecureUpper, the upper SAC's result (Secured).
type node struct {
	id, g int
	p     *plan

	// The FedAvg leader's: slot[g] is 1 + subgroup g's place in the
	// participation set until its upload arrives, 0 otherwise; models and
	// weights are the uploads, in that order; decoded[g] is what g's
	// compressed upload decodes into, kept across the rounds this node
	// leads.
	slot    []int
	models  [][]float64
	weights []float64
	waiting int
	decoded [][]float64
	total   float64         // the participants' summed weight
	bound   *compress.Bound // the compressed global model's error

	upper  []float64 // a subgroup leader's upper-SAC input under SecureUpper
	global []float64 // the model this peer resumes from
	msgs   []message // to send, in order
	err    error     // the first thing that failed here this round
}

// Begin arms n as peer id of the round p plans.
func (n *node) Begin(id int, p *plan) {
	decoded := n.decoded
	if id != p.leaders[p.fed] {
		decoded = nil // another peer leads the FedAvg layer
	}
	*n = node{id: id, g: p.group(id), p: p, decoded: decoded, msgs: n.msgs[:0]}
}

// Ready returns what n wants sent since the last call, valid until its
// next call, and the first error n met this round.
func (n *node) Ready() ([]message, error) {
	send := n.msgs
	n.msgs = n.msgs[:0]
	return send, n.err
}

func (n *node) send(to int, kind string, model []float64, block *compress.Delta) {
	n.msgs = append(n.msgs, message{From: n.id, To: to, Kind: kind, Model: model, Block: block})
}

// Lead tells the FedAvg leader whose uploads it combines, in order: the
// subgroups whose SAC succeeded and that beat the fraction-p timeout.
func (n *node) Lead(participate []int) {
	m, k := len(n.p.leaders), len(participate)
	n.slot, n.models, n.weights, n.waiting = make([]int, m), make([][]float64, k), make([]float64, k), k
	n.decoded = append(n.decoded, make([][]float64, max(0, m-len(n.decoded)))...)[:m]
	for i, g := range participate {
		n.slot[g] = i + 1
	}
}

// Upload hands a subgroup leader its SAC's result, which it uploads to
// the FedAvg leader weighted by its contributors' sample counts:
// compressed under Config.Compression unless it leads the FedAvg layer
// itself, whose own model never leaves the process, and under
// SecureUpper as count·avg, its input to the upper SAC.
func (n *node) Upload(r *sac.Result) {
	p := n.p
	m := message{From: n.id, To: p.leaders[p.fed], Kind: KindUpload, Model: r.Avg}
	for _, c := range r.Contributors {
		if p.counts == nil {
			m.Weight++
		} else {
			m.Weight += p.counts[p.offsets[n.g]+c]
		}
	}
	switch {
	case p.cfg.SecureUpper:
		n.upper = make([]float64, len(r.Avg))
		for j, x := range r.Avg {
			n.upper[j] = x * m.Weight
		}
		m.Model = n.upper
	case p.cfg.Compression.Enabled() && m.To != n.id:
		d, err := p.cfg.Compression.Compress(r.Avg)
		if err != nil {
			n.err = err
			return
		}
		m.Model, m.Block = nil, &d
	}
	n.msgs = append(n.msgs, m)
}

// Step hands n a message it received. It takes, once each and of the
// round's model size, an upload at the FedAvg leader from the leader of
// a participating subgroup, the global model at a subgroup leader from
// the FedAvg leader, and at a follower from its subgroup's leader (a
// degraded subgroup has none). Anything else is discarded.
func (n *node) Step(m message) {
	p := n.p
	switch {
	case m.Kind == KindUpload:
		n.upload(m)
	case m.From == n.id || n.global != nil || len(m.Model) != p.dim:
	case m.Kind == KindDownload && m.From == p.leaders[p.fed] && n.id == p.leaders[n.g]:
		n.global = m.Model
		n.broadcast(m.Block)
	case m.Kind == KindBroadcast && m.From == p.leaders[n.g] && m.From >= 0:
		n.global = m.Model
	}
}

func (n *node) upload(m message) {
	g, b, dim := n.p.group(m.From), m.Block, n.p.dim
	if g < 0 || g >= len(n.slot) || n.slot[g] == 0 || m.From != n.p.leaders[g] {
		return
	}
	i := n.slot[g] - 1
	switch {
	case n.p.cfg.SecureUpper: // the model travels in the upper SAC
	case b == nil && len(m.Model) == dim:
		n.models[i] = m.Model
	case b != nil && (b.Quant != nil && len(b.Quant.Q) == dim || b.Quant == nil && b.Sparse != nil && b.Sparse.Dim == dim):
		// The wire codec refuses a malformed block before a node sees it.
		n.decoded[g] = b.Dense(n.decoded[g])
		n.models[i] = n.decoded[g]
	default:
		return
	}
	n.slot[g], n.weights[i] = 0, m.Weight
	if n.waiting--; n.waiting == 0 {
		n.aggregate()
	}
}

// aggregate combines the uploads once the last has arrived, with
// Config.Aggregator; under SecureUpper it scales its own input when it
// is the only participant, and otherwise waits for the upper SAC.
func (n *node) aggregate() {
	for _, w := range n.weights {
		n.total += w
	}
	var global []float64
	switch secure := n.p.cfg.SecureUpper; {
	case secure && n.total == 0:
		n.err = errors.New("core: secure upper layer: zero total sample count")
	case secure && len(n.weights) > 1:
		return // Secured brings the upper SAC's result
	case secure: // the only participant: nothing to hide, nothing to exchange
		global = make([]float64, len(n.upper))
		for j, x := range n.upper {
			global[j] = x / n.total
		}
	case n.p.cfg.Aggregator != nil:
		global, n.err = n.p.cfg.Aggregator.Aggregate(n.models, n.weights)
	default:
		global, n.err = fl.FedAvg{}.Aggregate(n.models, n.weights)
	}
	n.distribute(global)
}

// Secured hands the FedAvg leader the upper SAC's average of the
// participants' count·avg; it scales the average, which it owns, into
// the global model in place.
func (n *node) Secured(r *sac.Result) {
	f := float64(len(r.Contributors)) / n.total
	for j := range r.Avg {
		r.Avg[j] *= f
	}
	n.distribute(r.Avg)
}

// distribute sends the global model down to every other subgroup that
// has a leader, then to this node's own subgroup. Under
// Config.Compression it is encoded once, and every peer, this one
// included, resumes from the decoded copy, so the fleet stays in
// lockstep.
func (n *node) distribute(global []float64) {
	if n.err != nil {
		return
	}
	var block *compress.Delta
	if c := n.p.cfg.Compression; c.Enabled() {
		d, err := c.Compress(global)
		if err != nil {
			n.err = err
			return
		}
		bound := d.Bound
		global, block, n.bound = d.Dense(global[:0]), &d, &bound
	}
	n.global = global
	for _, l := range n.p.leaders {
		if l >= 0 && l != n.id {
			n.send(l, KindDownload, global, block)
		}
	}
	n.broadcast(block)
}

// broadcast sends a subgroup leader's global model to its followers.
func (n *node) broadcast(block *compress.Delta) {
	for i := n.p.offsets[n.g]; i < n.p.offsets[n.g+1]; i++ {
		if i != n.id {
			n.send(i, KindBroadcast, n.global, block)
		}
	}
}
