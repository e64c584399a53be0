package harness

import "algossip/internal/rlnc"

// IdleDecoders returns node 0's decoder of the protocol each state on the
// idle list keeps, oldest first: what the next trial of that shape resets.
func IdleDecoders() []*rlnc.GenNode {
	idle.Lock()
	defer idle.Unlock()
	out := make([]*rlnc.GenNode, len(idle.states))
	for i, st := range idle.states {
		out[i] = st.ag.Node(0)
	}
	return out
}
