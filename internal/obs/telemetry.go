package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// RouterSample is one cycle-sampled observation of one router: utilization
// and occupancy over the window that ended at Cycle.
type RouterSample struct {
	Cycle  int64 `json:"cycle"`
	Router int   `json:"router"`
	// XbarUtil is crossbar utilization: flits forwarded during the window
	// divided by window length (flits/cycle; a P-port router can exceed 1).
	XbarUtil float64 `json:"xbar_util"`
	// LinkUtil is the mean utilization of the router's connected network
	// output links over the window (fraction of link bandwidth in use).
	LinkUtil float64 `json:"link_util"`
	// BufOcc is the number of flits held in input VC buffers at Cycle.
	BufOcc int `json:"buf_occ"`
	// AvgVCOcc and MaxVCOcc summarize per-VC buffer occupancy at Cycle
	// (flits per VC, over every input VC of the router).
	AvgVCOcc float64 `json:"avg_vc_occ"`
	MaxVCOcc int     `json:"max_vc_occ"`
	// Injected and Ejected are terminal flit counts during the window.
	Injected int64 `json:"injected"`
	Ejected  int64 `json:"ejected"`
}

// NodeSample is one cycle-sampled observation of one terminal's protocol
// state — in the batch model, Outstanding is the node's in-flight request
// count pf (the MSHR depth of §IV).
type NodeSample struct {
	Cycle       int64 `json:"cycle"`
	Node        int   `json:"node"`
	Outstanding int   `json:"outstanding"`
}

// Telemetry accumulates the sampled time series of one run.
type Telemetry struct {
	Routers []RouterSample `json:"routers"`
	Nodes   []NodeSample   `json:"nodes,omitempty"`
}

// AddRouter appends one router sample. A nil telemetry is a no-op.
func (t *Telemetry) AddRouter(s RouterSample) {
	if t != nil {
		t.Routers = append(t.Routers, s)
	}
}

// AddNode appends one node sample. A nil telemetry is a no-op.
func (t *Telemetry) AddNode(s NodeSample) {
	if t != nil {
		t.Nodes = append(t.Nodes, s)
	}
}

// routerCSVHeader matches the field order written by RouterCSV.
const routerCSVHeader = "cycle,router,xbar_util,link_util,buf_occ,avg_vc_occ,max_vc_occ,injected,ejected"

// RouterCSV renders the per-router time series (including the VC-occupancy
// columns) as CSV.
func (t *Telemetry) RouterCSV() string {
	var b strings.Builder
	b.WriteString(routerCSVHeader + "\n")
	if t == nil {
		return b.String()
	}
	for _, s := range t.Routers {
		fmt.Fprintf(&b, "%d,%d,%g,%g,%d,%g,%d,%d,%d\n",
			s.Cycle, s.Router, s.XbarUtil, s.LinkUtil, s.BufOcc, s.AvgVCOcc, s.MaxVCOcc, s.Injected, s.Ejected)
	}
	return b.String()
}

// nodeCSVHeader matches the field order written by NodeCSV.
const nodeCSVHeader = "cycle,node,outstanding"

// NodeCSV renders the per-node outstanding-request time series as CSV.
func (t *Telemetry) NodeCSV() string {
	var b strings.Builder
	b.WriteString(nodeCSVHeader + "\n")
	if t == nil {
		return b.String()
	}
	for _, s := range t.Nodes {
		fmt.Fprintf(&b, "%d,%d,%d\n", s.Cycle, s.Node, s.Outstanding)
	}
	return b.String()
}

// JSON renders the full telemetry as indented JSON.
func (t *Telemetry) JSON() ([]byte, error) {
	if t == nil {
		t = &Telemetry{}
	}
	return json.MarshalIndent(t, "", "  ")
}

// MeanXbarUtil returns each router's crossbar utilization averaged over
// every sample window: the per-router congestion intensity used for
// heatmaps. The result has n entries; routers never sampled stay 0.
func (t *Telemetry) MeanXbarUtil(n int) []float64 {
	sums := make([]float64, n)
	if t == nil {
		return sums
	}
	counts := make([]int, n)
	for _, s := range t.Routers {
		if s.Router >= 0 && s.Router < n {
			sums[s.Router] += s.XbarUtil
			counts[s.Router]++
		}
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums
}
