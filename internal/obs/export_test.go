package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// ParseRouterCSV parses RouterCSV output back into samples.
func ParseRouterCSV(data string) ([]RouterSample, error) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) == 0 || lines[0] != routerCSVHeader {
		return nil, fmt.Errorf("obs: router CSV header mismatch")
	}
	var out []RouterSample
	for ln, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 9 {
			return nil, fmt.Errorf("obs: router CSV line %d: want 9 fields, got %d", ln+2, len(f))
		}
		var s RouterSample
		var err error
		if s.Cycle, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.Router, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.XbarUtil, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.LinkUtil, err = strconv.ParseFloat(f[3], 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.BufOcc, err = strconv.Atoi(f[4]); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.AvgVCOcc, err = strconv.ParseFloat(f[5], 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.MaxVCOcc, err = strconv.Atoi(f[6]); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.Injected, err = strconv.ParseInt(f[7], 10, 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		if s.Ejected, err = strconv.ParseInt(f[8], 10, 64); err != nil {
			return nil, fmt.Errorf("obs: router CSV line %d: %w", ln+2, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseNodeCSV parses NodeCSV output back into samples.
func ParseNodeCSV(data string) ([]NodeSample, error) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) == 0 || lines[0] != nodeCSVHeader {
		return nil, fmt.Errorf("obs: node CSV header mismatch")
	}
	var out []NodeSample
	for ln, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 3 {
			return nil, fmt.Errorf("obs: node CSV line %d: want 3 fields, got %d", ln+2, len(f))
		}
		var s NodeSample
		var err error
		if s.Cycle, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			return nil, fmt.Errorf("obs: node CSV line %d: %w", ln+2, err)
		}
		if s.Node, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("obs: node CSV line %d: %w", ln+2, err)
		}
		if s.Outstanding, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("obs: node CSV line %d: %w", ln+2, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseChromeJSON parses a ChromeJSON trace back into lifecycle events
// (metadata records are skipped).
func ParseChromeJSON(data []byte) ([]Event, error) {
	var ct struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
			Args struct {
				Packet uint64 `json:"packet"`
				Phase  string `json:"phase"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("obs: parsing chrome trace: %w", err)
	}
	phases := map[string]Phase{}
	for p := PhaseInject; p <= PhaseEject; p++ {
		phases[p.String()] = p
	}
	var out []Event
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		p, ok := phases[e.Args.Phase]
		if !ok {
			return nil, fmt.Errorf("obs: chrome trace has unknown phase %q", e.Args.Phase)
		}
		out = append(out, Event{Cycle: int64(e.Ts), Packet: e.Args.Packet, Node: int32(e.Tid), Phase: p})
	}
	return out, nil
}
