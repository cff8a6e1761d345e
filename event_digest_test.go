package noceval

// Committed event-stream digests: what every run mode computes, cycle by
// cycle, pinned across commits. testdata/event_digests.json was recorded
// (-update-event-digests) on the last commit that still had the full-scan
// stepping mode — every router stepped, every port polled and every source
// queue visited each cycle, fast-forward off — from runs in that mode, which
// that commit's own tests proved equal to the default mode. Equality with
// the file is therefore bit-identity of today's one stepping path with that
// reference, at whatever shard count NOCEVAL_SHARDS selects, and it stays a
// fixed point for every later change to the cycle loop. The rows' chain
// fields were added later, recorded on a stepping path that reproduced
// every one of those SHAs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/obs"
	"noceval/internal/openloop"
	"noceval/internal/workload"
)

var updateEventDigests = flag.Bool("update-event-digests", false, "rewrite testdata/event_digests.json from this tree")

const eventDigestFile = "testdata/event_digests.json"

// runDigest is one row of the digest file. EventSHA covers the tracer's
// (cycle, packet, node, phase) stream of a traced run, in record order;
// ResultSHA and TelemetrySHA the JSON of the run's result struct and of its
// sampled telemetry. Chain localises an event-stream mismatch: its k-th
// space-separated link is the first chainPrefix hex digits of a rolling
// SHA-256 closed at cycle (k+1)*chainWindow, link k hashing link k-1's
// full sum and then window k's events, so the first differing link names
// the first window whose events differ. The barrier model takes no
// observer, so its rows hold a ResultSHA only.
type runDigest struct {
	Events       int    `json:"events,omitempty"`
	EventSHA     string `json:"eventSHA,omitempty"`
	Chain        string `json:"chain,omitempty"`
	ResultSHA    string `json:"resultSHA"`
	TelemetrySHA string `json:"telemetrySHA,omitempty"`
}

// chainWindow is the cycle span one link of a digest chain covers, and
// chainPrefix the hex digits kept of each link: 32 bits tell two windows
// apart, and keep the file's growth to kilobytes.
const (
	chainWindow = 256
	chainPrefix = 8
)

func hashJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// hashEvents digests a complete trace, whole and as a chain (see
// runDigest); a ring that overwrote events would digest a suffix whose
// start depends on its capacity, so that is an error.
func hashEvents(t *testing.T, tr *obs.Tracer) (n int, sum, chain string) {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; raise traceCap", tr.Dropped())
	}
	h, link := sha256.New(), sha256.New()
	var links []string
	closeLink := func() {
		s := link.Sum(nil)
		links = append(links, hex.EncodeToString(s)[:chainPrefix])
		link.Reset()
		link.Write(s)
	}
	var rec [21]byte
	end := int64(chainWindow)
	for _, e := range tr.Events() {
		for e.Cycle >= end {
			closeLink()
			end += chainWindow
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.Cycle))
		binary.LittleEndian.PutUint64(rec[8:], e.Packet)
		binary.LittleEndian.PutUint32(rec[16:], uint32(e.Node))
		rec[20] = byte(e.Phase)
		h.Write(rec[:])
		link.Write(rec[:])
	}
	if tr.Len() > 0 {
		closeLink()
	}
	return tr.Len(), hex.EncodeToString(h.Sum(nil)), strings.Join(links, " ")
}

// brief is d with its chain shortened to a link count, for messages.
func (d runDigest) brief() runDigest {
	if d.Chain != "" {
		d.Chain = fmt.Sprintf("%d links", len(strings.Fields(d.Chain)))
	}
	return d
}

// divergence describes how a run's digest d departs from the recorded
// want: for an event stream, the cycle range of the first window whose
// chain link differs.
func divergence(d, want runDigest) string {
	if d.Chain == want.Chain {
		return "event stream identical; result or telemetry differs"
	}
	got, rec := strings.Fields(d.Chain), strings.Fields(want.Chain)
	k := 0
	for k < len(got) && k < len(rec) && got[k] == rec[k] {
		k++
	}
	return fmt.Sprintf("event stream first diverges in cycles [%d, %d) (chain link %d of %d, recorded %d)",
		k*chainWindow, (k+1)*chainWindow, k, len(got), len(rec))
}

// traceCap holds every event of the largest digested run (Baseline at rate
// 0.1 for 2500 cycles: 335 029 events).
const traceCap = 1 << 19

// digestObserver samples telemetry on a period that does not divide the
// runs' phase lengths or reply latencies, so sample points fall inside idle
// stretches the engine would otherwise jump over.
func digestObserver(trace bool) *obs.Observer {
	return obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250, Trace: trace, TraceCap: traceCap})
}

// observedDigest runs one configuration twice — untraced, which at more
// than one shard steps on the gang, and traced, which always steps
// sequentially — requires the same result and telemetry from both, and
// digests them with the traced run's event stream.
func observedDigest[R any](t *testing.T, run func(o *obs.Observer) R) (runDigest, R) {
	t.Helper()
	o, ot := digestObserver(false), digestObserver(true)
	res, traced := run(o), run(ot)
	if !reflect.DeepEqual(res, traced) {
		t.Errorf("tracing changed the result:\nuntraced: %+v\ntraced:   %+v", res, traced)
	}
	if !reflect.DeepEqual(o.Telemetry, ot.Telemetry) {
		t.Errorf("tracing changed the telemetry: %d router / %d node samples untraced, %d / %d traced",
			len(o.Telemetry.Routers), len(o.Telemetry.Nodes), len(ot.Telemetry.Routers), len(ot.Telemetry.Nodes))
	}
	d := runDigest{ResultSHA: hashJSON(t, res), TelemetrySHA: hashJSON(t, o.Telemetry)}
	d.Events, d.EventSHA, d.Chain = hashEvents(t, ot.Tracer)
	return d, res
}

func openLoopDigest(t *testing.T, cfg openloop.Config) (runDigest, *openloop.Result) {
	t.Helper()
	return observedDigest(t, func(o *obs.Observer) *openloop.Result {
		cfg.Obs = o
		res, err := openloop.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func batchDigest(t *testing.T, cfg closedloop.BatchConfig) runDigest {
	t.Helper()
	d, _ := observedDigest(t, func(o *obs.Observer) *closedloop.BatchResult {
		cfg.Obs = o
		res, err := closedloop.RunBatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("batch run did not complete (stalled %v)", res.Stalled)
		}
		return res
	})
	return d
}

func barrierDigest(t *testing.T, cfg closedloop.BarrierConfig) runDigest {
	t.Helper()
	res, err := closedloop.RunBarrier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("barrier run did not complete")
	}
	return runDigest{ResultSHA: hashJSON(t, res)}
}

// checkEventDigests compares got with the rows of the digest file whose
// names start with prefix: each must match, and none may be missing on
// either side. With -update-event-digests it replaces those rows instead.
func checkEventDigests(t *testing.T, prefix string, got map[string]runDigest) {
	t.Helper()
	file := map[string]runDigest{}
	data, err := os.ReadFile(eventDigestFile)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil && !(*updateEventDigests && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *updateEventDigests {
		for name := range file {
			if strings.HasPrefix(name, prefix) {
				delete(file, name)
			}
		}
		for name, d := range got {
			file[name] = d
		}
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, d := range got {
		want, ok := file[name]
		switch {
		case !ok:
			t.Errorf("%s: digest %+v, not recorded", name, d)
		case want != d:
			t.Errorf("%s: %s\ndigest   %+v\nrecorded %+v", name, divergence(d, want), d.brief(), want.brief())
		}
	}
	for name := range file {
		if _, ok := got[name]; !ok && strings.HasPrefix(name, prefix) {
			t.Errorf("%s is recorded in %s but no longer run", name, eventDigestFile)
		}
	}
}

// checkEventDigest holds the calling test's one run to the row recorded
// under the test's name.
func checkEventDigest(t *testing.T, d runDigest) {
	t.Helper()
	checkEventDigests(t, t.Name(), map[string]runDigest{t.Name(): d})
}

// digestParams builds one network of the digest matrix. Three QoS classes
// take 16 VCs on the mesh — 5 ports x 16 > 64, the routers' nested-loop
// phases — and 12 elsewhere (Valiant on a torus needs 4 VCs per class); a
// single class takes 4. The faulted fabric drops and corrupts with one
// retry, so some transactions are abandoned, closes a link for a while and
// kills a router mid-run.
func digestParams(topo, alg, arb string, classes int, faulted bool) core.NetworkParams {
	p := core.Baseline()
	p.Topology, p.Routing, p.Arb = topo, alg, arb
	p.VCs, p.BufDepth = 4, 4
	if classes == 3 {
		p.VCs = 12
		if topo == "mesh8x8" {
			p.VCs = 16
		}
		p.Classes = []core.ClassSpec{
			{Name: "ctl", Share: 0.2},
			{Name: "data", Share: 0.3, Pattern: "transpose"},
			{Name: "bulk", Share: 0.5, Sizes: "bimodal"},
		}
	}
	if faulted {
		p.Fault = &fault.Params{
			CorruptRate: 2e-3, DropRate: 2e-2, Timeout: 150, MaxRetries: 1, Seed: 17,
			Outages: []fault.Outage{{Node: 1, Port: 0, From: 100, Until: 260}},
			Kills:   []fault.Kill{{Node: 5, At: 300}},
		}
	}
	return p
}

// TestEventDigests runs all three network-level run modes over every
// combination of topology, routing algorithm, arbiter, class count and
// fault injection, and compares each run's digest with the committed file.
func TestEventDigests(t *testing.T) {
	got := map[string]runDigest{}
	var abandoned int64
	for _, topo := range []string{"mesh8x8", "torus4x4", "ring8"} {
		for _, alg := range []string{"dor", "val", "ma"} {
			for _, arb := range []string{"rr", "age"} {
				for _, classes := range []int{1, 3} {
					for _, faulted := range []bool{false, true} {
						name := fmt.Sprintf("matrix/%s/%s/%s/c%d/faults=%v/", topo, alg, arb, classes, faulted)
						t.Run(name, func(t *testing.T) {
							p := digestParams(topo, alg, arb, classes, faulted)
							cfg, err := p.Build()
							if err != nil {
								t.Fatal(err)
							}
							pat, _ := p.BuildPattern()
							sizes, _ := p.BuildSizes()
							qos, err := p.BuildClasses()
							if err != nil {
								t.Fatal(err)
							}

							d, ol := openLoopDigest(t, openloop.Config{
								Net: cfg, Pattern: pat, Sizes: sizes, Classes: qos, Rate: 0.1,
								Warmup: 200, Measure: 600, DrainLimit: 100_000, Seed: 42,
							})
							got[name+"openloop"] = d
							if faulted {
								abandoned += ol.Faults.Abandoned
							}

							got[name+"batch"] = batchDigest(t, closedloop.BatchConfig{
								Net: cfg, B: 12, M: 2, Seed: 42,
								Reply:          closedloop.FixedReply{Latency: 120},
								Kernel:         &closedloop.KernelConfig{StaticFraction: 0.1, TimerPeriod: 700, TimerBatch: 1},
								ReqClass:       classes - 1,
								SampleInterval: 300, MaxCycles: 400_000,
							})

							got[name+"barrier"] = barrierDigest(t, closedloop.BarrierConfig{
								Net: cfg, B: 10, Phases: 2, Class: classes / 2, Seed: 42, MaxCycles: 400_000,
							})
						})
					}
				}
			}
		}
	}
	if abandoned == 0 {
		t.Error("no faulted open-loop row abandoned a transaction; the NIC's give-up path is not digested")
	}
	checkEventDigests(t, "matrix/", got)
}

// TestExecEventDigests pins the execution-driven path the same way: the
// whole cmp.Result of three benchmarks — injection timeline and both
// traffic matrices included — at router delays 1 and 4, at 3 GHz
// and at 75 MHz with the timer-interrupt model on, so user code, kernel
// handlers, coherence traffic and barriers are all inside the hash. The CMP
// system takes no observer, so its rows hold a ResultSHA only.
func TestExecEventDigests(t *testing.T) {
	got := map[string]runDigest{}
	for _, bench := range []string{"blackscholes", "lu", "canneal"} {
		for _, tr := range []int64{1, 4} {
			for _, clock := range []workload.Clock{workload.Clock3GHz, workload.Clock75MHz} {
				timer := clock == workload.Clock75MHz
				res, err := core.Exec(core.Table2Network(tr), core.ExecParams{
					Benchmark: bench, Clock: clock, Timer: timer,
					SampleInterval: 1000, CollectMatrix: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("exec/%s/tr%d/%s/timer=%v", bench, tr, clock, timer)
				if !res.Completed || len(res.Timeline) == 0 || res.Matrix == nil || res.AppMatrix == nil ||
					(res.TimerInterrupts > 0) != timer {
					t.Fatalf("%s: completed %v, %d timeline samples, %d timer interrupts", name,
						res.Completed, len(res.Timeline), res.TimerInterrupts)
				}
				got[name] = runDigest{ResultSHA: hashJSON(t, res)}
			}
		}
	}
	checkEventDigests(t, "exec/", got)
}
