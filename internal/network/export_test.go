package network

import "noceval/internal/routing"

// allAlgorithms is every built-in routing algorithm.
var allAlgorithms = []routing.Algorithm{routing.DOR{}, routing.Valiant{}, routing.MinimalAdaptive{}, routing.ROMM{}}

// RunUntilQuiescent steps until the network drains or maxCycles elapse,
// returning the number of cycles stepped and whether it drained.
func (n *Network) RunUntilQuiescent(maxCycles int64) (int64, bool) {
	start := n.clock.Now()
	for !n.Quiescent() {
		if n.clock.Now()-start >= maxCycles {
			return n.clock.Now() - start, false
		}
		n.Step()
	}
	return n.clock.Now() - start, true
}

// PerHeadRouting wraps a routing algorithm so that routing.NextHops, which
// memoises only routing.DOR itself, declines it: every router of a network
// built with it has no hop memo, updates each packet's routing state and
// asks the algorithm per head flit. Answers are the wrapped algorithm's.
type PerHeadRouting struct{ routing.Algorithm }
