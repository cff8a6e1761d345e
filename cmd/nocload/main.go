// Command nocload is the experiment service's load generator: it replays
// a mix of experiment specs against a running nocd at a target request
// rate and reports achieved throughput and submit latency.
//
//	nocload -addr http://localhost:9640 -spec a.json -spec b.json \
//	        -rps 200 -duration 5s [-wait] [-min-rps 100]
//
// Specs are POSTed round-robin from the mix, so repeating one spec in the
// mix (or passing a single spec) exercises the server's single-flight
// coalescing and experiment cache. -wait blocks until every submitted job
// reaches a terminal state (or has aged out of the server's table, 410).
// -min-rps turns the report into a gate: the exit status is 1 when the
// achieved request rate falls below it (the CI smoke benchmark).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// specList collects repeated -spec flags.
type specList []string

func (s *specList) String() string { return fmt.Sprint([]string(*s)) }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// submitResult mirrors the fields of the service's SubmitResponse that
// the report cares about.
type submitResult struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	CoalescedOnto bool   `json:"coalescedOnto"`
	Error         string `json:"error"`
}

func main() {
	addr := flag.String("addr", "http://localhost:9640", "nocd base URL")
	var specs specList
	flag.Var(&specs, "spec", "experiment spec file to replay (repeatable; round-robin mix)")
	rps := flag.Float64("rps", 50, "target request rate")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	wait := flag.Bool("wait", false, "after the run, wait for every submitted job to finish")
	minRPS := flag.Float64("min-rps", 0, "exit 1 when the achieved request rate falls below this")
	flag.Parse()

	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "nocload: at least one -spec is required")
		os.Exit(2)
	}
	bodies := make([][]byte, len(specs))
	for i, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocload:", err)
			os.Exit(2)
		}
		bodies[i] = data
	}
	if *rps <= 0 {
		fmt.Fprintln(os.Stderr, "nocload: -rps must be positive")
		os.Exit(2)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		accepted  int // 202: new job
		coalesced int // 200: absorbed by an in-flight twin
		failures  int
		jobIDs    = make(map[string]bool)
		wg        sync.WaitGroup
	)
	record := func(lat time.Duration, res *submitResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures++
			return
		}
		latencies = append(latencies, lat)
		if res.CoalescedOnto {
			coalesced++
		} else {
			accepted++
		}
		if res.ID != "" {
			jobIDs[res.ID] = true
		}
	}

	interval := time.Duration(float64(time.Second) / *rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	start := time.Now()
	deadline := start.Add(*duration)
	sent := 0
	for now := start; now.Before(deadline); now = <-tick(ticker) {
		body := bodies[sent%len(bodies)]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			res, err := submit(client, *addr, body)
			record(time.Since(t0), res, err)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	achieved := float64(len(latencies)) / elapsed.Seconds()
	fmt.Printf("nocload: %d requests in %.2fs — %.1f req/s achieved (target %.1f)\n",
		sent, elapsed.Seconds(), achieved, *rps)
	fmt.Printf("nocload: %d new jobs, %d coalesced, %d failed; %d distinct job ids\n",
		accepted, coalesced, failures, len(jobIDs))
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(latencies)-1))
			return latencies[i]
		}
		fmt.Printf("nocload: submit latency p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms\n",
			ms(pct(0.50)), ms(pct(0.95)), ms(pct(0.99)), ms(latencies[len(latencies)-1]))
	}

	if *wait {
		if err := waitJobs(client, *addr, jobIDs); err != nil {
			fmt.Fprintln(os.Stderr, "nocload:", err)
			os.Exit(1)
		}
		fmt.Printf("nocload: all %d jobs reached a terminal state\n", len(jobIDs))
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "nocload: %d submissions failed\n", failures)
		os.Exit(1)
	}
	if *minRPS > 0 && achieved < *minRPS {
		fmt.Fprintf(os.Stderr, "nocload: achieved %.1f req/s < required %.1f\n", achieved, *minRPS)
		os.Exit(1)
	}
}

// tick adapts the ticker channel so the send loop reads wall time from it.
func tick(t *time.Ticker) <-chan time.Time { return t.C }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func submit(client *http.Client, addr string, body []byte) (*submitResult, error) {
	resp, err := client.Post(addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var res submitResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("decoding response (%d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: %d: %s", resp.StatusCode, res.Error)
	}
	return &res, nil
}

// waitJobs polls each job until it reaches a terminal state. A 410 is a job
// that finished and has since aged out of the server's table.
func waitJobs(client *http.Client, addr string, ids map[string]bool) error {
	for id := range ids {
		for {
			resp, err := client.Get(addr + "/jobs/" + id)
			if err != nil {
				return err
			}
			var v struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return err
			}
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusGone:
				goto next
			default:
				return fmt.Errorf("GET /jobs/%s: %d: %s", id, resp.StatusCode, v.Error)
			}
			switch v.State {
			case "done", "failed", "canceled":
				goto next
			}
			time.Sleep(50 * time.Millisecond)
		}
	next:
	}
	return nil
}
