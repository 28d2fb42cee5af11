//go:build race

package transport

// poisonRecycled makes TCPMesh.Recycle overwrite every vector it is
// handed with NaNs. Race builds are the test builds (make race,
// test-wire): a caller that recycles a payload it still reads then
// computes NaNs deterministically, instead of only when a later frame
// happens to land in the same vector.
const poisonRecycled = true
