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
