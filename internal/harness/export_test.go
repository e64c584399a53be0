package harness

import "algossip/internal/rlnc"

// IdleDecoders returns node 0's decoder of each protocol on the idle
// list, least recently returned first: what the next trial of that shape
// resets.
func IdleDecoders() []*rlnc.GenNode {
	idle.Lock()
	defer idle.Unlock()
	out := make([]*rlnc.GenNode, len(idle.ps))
	for i, p := range idle.ps {
		out[i] = p.Node(0)
	}
	return out
}
