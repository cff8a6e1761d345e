package noceval

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchClaim is one record of BENCH_TRAJECTORY.json.
type benchClaim struct {
	PR         int       `json:"pr"`
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	BaseMedian float64   `json:"base_median"`
	HeadMedian float64   `json:"head_median"`
	Ratio      float64   `json:"ratio"`
	Interval   []float64 `json:"interval"`
	Pairs      int       `json:"pairs"`
	Wins       int       `json:"wins"`
	Seeds      string    `json:"seeds"`
	BaseRev    string    `json:"base_rev"`
	Met        bool      `json:"met"`
	Note       string    `json:"note"`
}

// TestBenchTrajectoryCoversClaims parses the committed claim trajectory
// and fails if CHANGES.md records a claimed gain, met or not met, for a
// PR that has no record with that verdict.
func TestBenchTrajectoryCoversClaims(t *testing.T) {
	data, err := os.ReadFile("BENCH_TRAJECTORY.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Doc    string       `json:"doc"`
		Claims []benchClaim `json:"claims"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&traj); err != nil {
		t.Fatalf("BENCH_TRAJECTORY.json: %v", err)
	}
	verdict := map[int]map[bool]bool{}
	for _, c := range traj.Claims {
		if c.Workload == "" || c.Metric == "" || c.BaseRev == "" || c.Seeds == "" ||
			c.BaseMedian <= 0 || c.HeadMedian <= 0 || c.Ratio <= 0 || c.Pairs <= 0 || c.Wins > c.Pairs {
			t.Errorf("PR %d: incomplete record %+v", c.PR, c)
		}
		if c.Interval != nil && (len(c.Interval) != 2 || c.Interval[0] > c.Interval[1]) {
			t.Errorf("PR %d: interval %v is not [lo, hi]", c.PR, c.Interval)
		}
		if verdict[c.PR] == nil {
			verdict[c.PR] = map[bool]bool{}
		}
		verdict[c.PR][c.Met] = true
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+)`)
	for _, line := range strings.Split(string(changes), "\n") {
		met := strings.Contains(line, "claimed gain met")
		if !met && !strings.Contains(line, "claimed gain not met") {
			continue
		}
		m := entry.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("CHANGES.md line records a claim verdict but names no PR: %.60s", line)
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		if !verdict[pr][met] {
			t.Errorf("CHANGES.md records PR %d's claimed gain as met=%v; BENCH_TRAJECTORY.json has no such record", pr, met)
		}
	}
}
