package core

import (
	"fmt"

	"noceval/internal/par"
)

// BatchGrid runs the batch model over the cross product of network
// parameter variants and m values in parallel, returning results indexed
// [variant][m]. It is the workhorse behind the m-sweep figures.
func BatchGrid(variants []NetworkParams, ms []int, bp BatchParams) ([][]*BatchGridCell, error) {
	out := make([][]*BatchGridCell, len(variants))
	for i := range out {
		out[i] = make([]*BatchGridCell, len(ms))
	}
	n := len(variants) * len(ms)
	err := par.Parallel(n, 0, func(idx int) error {
		vi, mi := idx/len(ms), idx%len(ms)
		p := bp
		p.M = ms[mi]
		res, err := Batch(variants[vi], p)
		if err != nil {
			return err
		}
		if !res.Completed {
			return fmt.Errorf("batch %s m=%d did not complete", variants[vi], ms[mi])
		}
		out[vi][mi] = &BatchGridCell{
			Params:     variants[vi],
			M:          ms[mi],
			Runtime:    res.Runtime,
			Throughput: res.Throughput,
			NodeFinish: res.NodeFinish,
		}
		return nil
	})
	return out, err
}

// BatchGridCell is one point of a batch-model parameter grid.
type BatchGridCell struct {
	Params     NetworkParams
	M          int
	Runtime    int64
	Throughput float64
	NodeFinish []int64
}

// OpenLoopGrid runs open-loop sweeps for several network variants in
// parallel, returning results indexed [variant][rate]. Unstable points are
// preserved (not truncated) so callers can decide how to plot them.
func OpenLoopGrid(variants []NetworkParams, rates []float64) ([][]*OpenLoopGridCell, error) {
	out := make([][]*OpenLoopGridCell, len(variants))
	for i := range out {
		out[i] = make([]*OpenLoopGridCell, len(rates))
	}
	n := len(variants) * len(rates)
	err := par.Parallel(n, 0, func(idx int) error {
		vi, ri := idx/len(rates), idx%len(rates)
		res, err := OpenLoop(variants[vi], rates[ri])
		if err != nil {
			return err
		}
		out[vi][ri] = &OpenLoopGridCell{
			Params:     variants[vi],
			Rate:       rates[ri],
			AvgLatency: res.AvgLatency,
			Worst:      res.WorstLatency,
			Accepted:   res.Accepted,
			Stable:     res.Stable,
		}
		return nil
	})
	return out, err
}

// OpenLoopGridCell is one point of an open-loop parameter grid.
type OpenLoopGridCell struct {
	Params     NetworkParams
	Rate       float64
	AvgLatency float64
	Worst      float64
	Accepted   float64
	Stable     bool
}
