package core

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
	"repro/internal/transport"
)

// message is one message between peers of a round, of either layer.
// Model is a dense model, or a sac/* message's payload; Block, when set,
// is the compressed encoding that crosses the wire instead. A compressed
// upload carries only its block, which the FedAvg leader decodes; a
// download or broadcast carries the block and the global model its
// sender decoded, which every receiver reads, as an in-memory SAC
// receiver reads its sender's share block. Weight is an upload's sample
// count, metadata in the clear as in Alg. 3. A sac/* message names its
// SAC — the sender's subgroup's, or the upper one (Upper) — and the
// share index it is about; both live in memory only, no wire frame
// carries them yet.
type message struct {
	From, To int
	Kind     string
	Model    []float64
	Block    *compress.Delta
	Weight   float64
	Upper    bool
	ShareIdx int
}

// Bytes is what m costs on the wire: its block's encoded size, or 8
// bytes a weight.
func (m message) Bytes() int64 {
	if m.Block != nil {
		return m.Block.EncodedBytes()
	}
	return int64(8 * len(m.Model))
}

// plan is what every node of a round knows. Subgroup g is peers
// offsets[g] ≤ i < offsets[g+1], led by peer leaders[g]; fed is the
// subgroup whose leader leads the FedAvg layer, −1 until the subgroup
// SACs have run.
type plan struct {
	cfg              *Config
	dim              int
	counts           []float64 // RoundSpec.SampleCounts
	offsets, leaders []int
	fed              int
}

// group is peer i's subgroup, outside [0,m) when i is no peer.
func (p *plan) group(i int) int { return sort.SearchInts(p.offsets, i+1) - 1 }

// node is one peer's side of Alg. 3, from Divide to download: it takes
// part in its subgroup's SAC through a sac.Peer; a subgroup leader
// uploads what its peer collected to the FedAvg leader, which combines
// the uploads and sends the global model down to the other subgroup
// leaders, and each broadcasts it to its subgroup. Under SecureUpper
// each participating leader also takes part in the upper SAC, whose
// collector is the FedAvg leader. Like sac.Peer it is Begin, then Step
// per received message, with what it wants sent — its peers' messages
// included — read from Ready; it does no IO. What one peer cannot know
// comes from the driver (System.AggregateRound): the SAC schedule steps
// the peers it lends (join, leave), and the FedAvg layer's inputs are
// the plan, the FedAvg leader's participation set (Lead) and whom it
// asks to Upload.
type node struct {
	id, g int
	p     *plan

	// The SACs n is in while they run: its subgroup's, and the upper
	// one. collected is what the subgroup peer collected, at its leader
	// once the SAC is over.
	sub, up   lent
	collected *sac.Result

	// The FedAvg leader's: slot[g] is 1 + subgroup g's place in the
	// participation set until its upload arrives, 0 otherwise; models and
	// weights are the uploads, in that order; decoded[g] is what g's
	// compressed upload decodes into, out what the global model is
	// written into and outBlock what it is compressed into, all lent by
	// the driver.
	slot     []int
	models   [][]float64
	weights  []float64
	waiting  int
	decoded  [][]float64
	out      []float64
	outBlock *compress.Delta
	total    float64         // the participants' summed weight
	bound    *compress.Bound // the compressed global model's error

	upper   []float64 // a subgroup leader's upper-SAC input under SecureUpper, lent by the driver
	global  []float64 // the model this peer resumes from
	msgs    []message // to send, in order
	invalid int       // sac/* messages discarded since the last Ready
	err     error     // the first thing that failed here this round
}

// Begin arms n as peer id of the round p plans.
func (n *node) Begin(id int, p *plan) {
	*n = node{id: id, g: p.group(id), p: p, msgs: n.msgs[:0]}
}

// Ready returns what n and its SAC peers want sent since the last call,
// valid until n's next call, how many sac/* messages they discarded, and
// the first error n met this round. The peers' finished payloads need no
// recycling: in memory a payload is its sender's.
func (n *node) Ready() ([]message, int, error) {
	for _, l := range []*lent{&n.sub, &n.up} {
		if l.peer == nil {
			continue
		}
		send, _, invalid := l.peer.Ready()
		for _, m := range send {
			n.msgs = append(n.msgs, message{From: n.id, To: l.members[m.To], Kind: m.Kind, Model: m.Payload, Upper: l == &n.up, ShareIdx: m.ShareIdx})
		}
		n.invalid += invalid
	}
	send, invalid := n.msgs, n.invalid
	n.msgs, n.invalid = n.msgs[:0], 0
	return send, invalid, n.err
}

// lent is a SAC n is in while it runs: its peer, lent by the driver,
// and the SAC's members, index j being node members[j].
type lent struct {
	peer    *sac.Peer
	members []int
}

// in is n's place in the SAC a message names: its subgroup's, or the
// upper one.
func (n *node) in(upper bool) *lent {
	if upper {
		return &n.up
	}
	return &n.sub
}

// join lends n its peer in a SAC that is starting.
func (n *node) join(upper bool, peer *sac.Peer, members []int) { *n.in(upper) = lent{peer, members} }

// leave ends n's part in that SAC: n keeps what its peer collected and
// gives the peer back. The FedAvg leader scales the upper SAC's average
// of the participants' count·avg, which it owns, into the global model
// in place.
func (n *node) leave(upper bool) {
	l := n.in(upper)
	switch r := l.peer.Collected(); {
	case !upper:
		n.collected = r
	case r != nil:
		f := float64(len(r.Contributors)) / n.total
		for j := range r.Avg {
			r.Avg[j] *= f
		}
		n.distribute(r.Avg)
	}
	*l = lent{}
}

func (n *node) send(to int, kind string, model []float64, block *compress.Delta) {
	n.msgs = append(n.msgs, message{From: n.id, To: to, Kind: kind, Model: model, Block: block})
}

// Lead tells the FedAvg leader whose uploads it combines, in order: the
// subgroups whose SAC succeeded and that beat the fraction-p timeout;
// decoded, one vector per subgroup, out, the global model's, and block,
// its compressed encoding's under Config.Compression, are the driver's.
// A Config.Aggregator returns a global model of its own.
func (n *node) Lead(participate []int, decoded [][]float64, out []float64, block *compress.Delta) {
	m, k := len(n.p.leaders), len(participate)
	n.slot, n.models, n.weights, n.waiting = make([]int, m), make([][]float64, k), make([]float64, k), k
	n.decoded, n.out, n.outBlock = decoded, out, block
	for i, g := range participate {
		n.slot[g] = i + 1
	}
}

// Upload sends what a subgroup leader's peer collected to the FedAvg
// leader, weighted by its contributors' sample counts: compressed into
// block, the driver's, under Config.Compression unless it leads the
// FedAvg layer itself, whose own model never leaves the process, and
// under SecureUpper as the weight alone, the model going as count·avg
// into upper, the driver's vector of the model's length, its input to
// the upper SAC.
func (n *node) Upload(upper []float64, block *compress.Delta) {
	p, r := n.p, n.collected
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
		n.upper = upper
		for j, x := range r.Avg {
			n.upper[j] = x * m.Weight
		}
		m.Model = nil
	case p.cfg.Compression.Enabled() && m.To != n.id:
		if err := p.cfg.Compression.CompressInto(block, r.Avg); err != nil {
			n.err = err
			return
		}
		m.Model, m.Block = nil, block
	}
	n.msgs = append(n.msgs, m)
}

// Step hands n a message it received. A sac/* message goes to n's peer
// in the SAC it names, translated to that SAC's indices, and is counted
// invalid when n has none there. Of the FedAvg layer's, once the SACs
// have run, it takes — once each and of the round's model size — an
// upload at the FedAvg leader from the leader of a participating
// subgroup, the global model at a subgroup leader from the FedAvg
// leader, and at a follower from its subgroup's leader. Anything else is
// discarded.
func (n *node) Step(m message) {
	p := n.p
	switch {
	case m.Kind != KindUpload && m.Kind != KindDownload && m.Kind != KindBroadcast:
		n.stepSAC(m)
	case p.fed < 0:
	case m.Kind == KindUpload:
		n.upload(m)
	case m.From == n.id || n.global != nil || len(m.Model) != p.dim:
	case m.Kind == KindDownload && m.From == p.leaders[p.fed] && n.id == p.leaders[n.g]:
		n.global = m.Model
		n.broadcast(m.Block)
	case m.Kind == KindBroadcast && m.From == p.leaders[n.g]:
		n.global = m.Model
	}
}

func (n *node) stepSAC(m message) {
	l := n.in(m.Upper)
	if l.peer == nil {
		n.invalid++
		return
	}
	l.peer.Step(transport.Message{From: slices.Index(l.members, m.From), To: slices.Index(l.members, m.To), Kind: m.Kind, ShareIdx: m.ShareIdx, Payload: m.Model})
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
// is the only participant, and otherwise waits for its upper peer.
func (n *node) aggregate() {
	for _, w := range n.weights {
		n.total += w
	}
	var global []float64
	switch secure := n.p.cfg.SecureUpper; {
	case secure && n.total == 0:
		n.err = errors.New("core: secure upper layer: zero total sample count")
	case secure && len(n.weights) > 1:
		return // the upper SAC brings the average
	case secure: // the only participant: nothing to hide, nothing to exchange
		global = n.out
		for j, x := range n.upper {
			global[j] = x / n.total
		}
	case n.p.cfg.Aggregator != nil:
		global, n.err = n.p.cfg.Aggregator.Aggregate(n.models, n.weights)
	default:
		global, n.err = fl.FedAvg{}.AggregateInto(n.out, n.models, n.weights)
	}
	n.distribute(global)
}

// distribute sends the global model down to every other subgroup that
// has a leader, then to this node's own subgroup. Under
// Config.Compression it is encoded once, into the driver's block, and
// every peer, this one included, resumes from the decoded copy, so the
// fleet stays in lockstep.
func (n *node) distribute(global []float64) {
	if n.err != nil {
		return
	}
	var block *compress.Delta
	if c := n.p.cfg.Compression; c.Enabled() {
		if err := c.CompressInto(n.outBlock, global); err != nil {
			n.err = err
			return
		}
		block = n.outBlock
		bound := block.Bound
		global, n.bound = block.Dense(global[:0]), &bound
	}
	n.global = global
	for _, l := range n.p.leaders {
		if l != n.id {
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
