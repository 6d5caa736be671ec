package vm

import "protean/internal/market"

// UpCount returns the number of schedulable nodes.
func (f *Fleet) UpCount() int {
	n := 0
	for _, nd := range f.nodes {
		if nd.state == nodeUp {
			n++
		}
	}
	return n
}

// leaseOf returns the marketplace lease backing node i (nil on the
// tariff or while the node has none).
func (f *Fleet) leaseOf(i int) *market.Lease { return f.nodes[i].lease }
