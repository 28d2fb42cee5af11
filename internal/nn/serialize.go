package nn

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/compress"
	"repro/internal/wire"
)

func (m *Model) schema() ([]string, []int) {
	params := m.Params()
	names := make([]string, len(params))
	sizes := make([]int, len(params))
	for i, p := range params {
		names[i] = p.Name
		sizes[i] = p.W.Size()
	}
	return names, sizes
}

// Save writes the model's weights as one wire-codec checkpoint frame
// (length-prefixed binary, 8 bytes per weight; internal/wire,
// DESIGN.md §10): a schema of parameter names/sizes, to reject
// mismatched architectures, plus the flat weight vector. The
// architecture itself is not serialized — loading requires a model
// built with the same constructor (peers in federated learning all
// share the architecture and exchange only weights).
func (m *Model) Save(w io.Writer) error {
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B, _ = m.AppendCheckpoint(buf.B[:0], nil)
	if _, err := w.Write(buf.B); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// AppendCheckpoint appends the model's current checkpoint as a wire
// frame to dst — the allocation-free path for senders that ship
// checkpoints every round into a reused buffer. weights is an optional
// scratch vector for the flat weights (reused when its capacity
// suffices); pass nil to allocate.
func (m *Model) AppendCheckpoint(dst []byte, weights []float64) ([]byte, []float64) {
	names, sizes := m.schema()
	if cap(weights) < m.ParamCount() {
		weights = make([]float64, 0, m.ParamCount())
	}
	weights = weights[:0]
	for _, p := range m.Params() {
		weights = append(weights, p.W.Data()...)
	}
	cp := wire.Checkpoint{Names: names, Sizes: sizes, Weights: weights}
	return wire.AppendCheckpointFrame(dst, cp), weights
}

// SaveQuantized writes the model's weights as one quantized checkpoint
// frame (KindCheckpointQuant): the schema travels exactly as in Save,
// the weight vector as a fixed-point block at the given width (1: int8,
// ~8× smaller than Save; 2: int16, ~4×). The compression is lossy —
// every weight reconstructs within the returned bound's MaxCoordErr —
// and deterministic. Load accepts both formats transparently.
func (m *Model) SaveQuantized(w io.Writer, width int) (compress.Bound, error) {
	names, sizes := m.schema()
	q, bound, err := compress.Quantize(m.WeightVector(), width, nil)
	if err != nil {
		return bound, fmt.Errorf("nn: save quantized: %w", err)
	}
	cp := wire.QuantCheckpoint{Names: names, Sizes: sizes, Delta: q}
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = wire.AppendQuantCheckpointFrame(buf.B[:0], cp)
	if _, err := w.Write(buf.B); err != nil {
		return bound, fmt.Errorf("nn: save quantized: %w", err)
	}
	return bound, nil
}

// Load restores weights written by Save or SaveQuantized into this
// model, verifying that the parameter schema matches exactly. It
// dispatches on the wire header's kind; input that is not a wire frame
// fails with wire.ErrBadMagic.
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.Peek(wire.HeaderSize)
	if err != nil && err != io.EOF { // a short header fails ParseHeader
		return fmt.Errorf("nn: load: %w", err)
	}
	kind, _, err := wire.ParseHeader(header)
	if err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	if kind == wire.KindCheckpointQuant {
		cp, err := wire.ReadQuantCheckpointFrame(br)
		if err != nil {
			return fmt.Errorf("nn: load: %w", err)
		}
		return m.restore(cp.Names, cp.Sizes, compress.Dequantize(cp.Delta, nil))
	}
	cp, err := wire.ReadCheckpointFrame(br)
	if err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	return m.restore(cp.Names, cp.Sizes, cp.Weights)
}

// restore validates a decoded checkpoint's schema against the model and
// installs its weights.
func (m *Model) restore(names []string, sizes []int, weights []float64) error {
	wantNames, wantSizes := m.schema()
	if len(names) != len(wantNames) {
		return fmt.Errorf("nn: load: checkpoint has %d params, model has %d", len(names), len(wantNames))
	}
	for i := range wantNames {
		if names[i] != wantNames[i] || sizes[i] != wantSizes[i] {
			return fmt.Errorf("nn: load: param %d is %s[%d], model expects %s[%d]",
				i, names[i], sizes[i], wantNames[i], wantSizes[i])
		}
	}
	return m.SetWeightVector(weights)
}
