package costmodel

import "fmt"

// Closed forms for the compressed-distribution extension: when the
// FedAvg-layer model messages travel quantized or sparsified
// (internal/compress), the cost unit of those messages shrinks from
// 8·dim to the encoded block size, compress.Config.MessageBytes. That
// size is stated once, by the wire codec's QuantBlockSize and
// SparseBlockSize (internal/wire, delta.go), and the codec's round-trip
// tests hold it to len(encoding); the formulas here count messages.

// DistributionMessages returns the number of FedAvg-layer model messages
// in one full-participation two-layer round over the given subgroup
// sizes: (m−1) uploads + (m−1) downloads + Σ(n_g−1) broadcasts, i.e.
// 2(m−1) + (N−m). These are exactly the messages compression applies to;
// the SAC-layer share/subtotal traffic stays at its 8·dim unit.
func DistributionMessages(sizes []int) (int64, error) {
	if len(sizes) == 0 {
		return 0, fmt.Errorf("costmodel: no subgroups")
	}
	total := 2 * int64(len(sizes)-1)
	for _, n := range sizes {
		if n < 1 {
			return 0, fmt.Errorf("costmodel: subgroup size %d", n)
		}
		total += int64(n - 1)
	}
	return total, nil
}

// DistributionBytes returns the FedAvg-layer distribution traffic of one
// full-participation round when every model message costs msgBytes —
// 8·dim uncompressed, or compress.Config.MessageBytes under
// compression. internal/core charges exactly this: the tests drive a
// round at several N and compare the fedavg/* counters against it.
func DistributionBytes(sizes []int, msgBytes int64) (int64, error) {
	if msgBytes < 0 {
		return 0, fmt.Errorf("costmodel: message bytes %d", msgBytes)
	}
	msgs, err := DistributionMessages(sizes)
	if err != nil {
		return 0, err
	}
	return msgs * msgBytes, nil
}
