package closedloop

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"noceval/internal/fault"
)

var updateBatchDigests = flag.Bool("update-batch-digests", false, "rewrite testdata/batch_digests.json from this tree")

// batchMatrix is every combination of the inputs the batch driver's request
// loop and reply schedule branch on: the MSHR limit, the injection
// throttle, the kernel model (static share plus timer, which grows targets
// mid-run), the reply model, and a faulted network whose NIC abandons
// transactions (the OnDeadDrop path). The timeline is on throughout, so
// bucket boundaries take part in every fast-forward decision.
func batchMatrix() map[string]BatchConfig {
	replies := []ReplyModel{
		ImmediateReply{},
		FixedReply{Latency: 500},
		ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1},
	}
	cases := map[string]BatchConfig{}
	for _, m := range []int{1, 4} {
		for _, nar := range []float64{1, 0.3} {
			for _, kernel := range []bool{false, true} {
				for _, reply := range replies {
					for _, faulted := range []bool{false, true} {
						cfg := BatchConfig{
							Net: smallMeshConfig(), B: 60, M: m, NAR: nar, Reply: reply,
							Seed: 7, SampleInterval: 1000, MaxCycles: 5_000_000,
						}
						if kernel {
							cfg.Kernel = &KernelConfig{StaticFraction: 0.1, TimerPeriod: 2000, TimerBatch: 1, KernelNAR: 0.5}
						}
						if faulted {
							cfg.Net.Fault = &fault.Params{DropRate: 0.05, Timeout: 150, MaxRetries: 1}
						}
						name := fmt.Sprintf("m%d/nar%g/kernel=%v/%s/faults=%v", m, nar, kernel, reply.Name(), faulted)
						cases[name] = cfg
					}
				}
			}
		}
	}
	return cases
}

// TestBatchDigestsAcrossCommits compares every BatchResult of the matrix,
// as the SHA-256 of its JSON, with testdata/batch_digests.json. The file was
// written by this test (-update-batch-digests) on the commit before the
// driver's scans became a ready set and its reply schedule a typed heap, so
// equality here is bit-identity across that change, on more shapes than the
// one batch workload of the repo benchmark.
func TestBatchDigestsAcrossCommits(t *testing.T) {
	got := map[string]string{}
	var failed int64
	for name, cfg := range batchMatrix() {
		res, err := RunBatch(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: did not complete (stalled %v)", name, res.Stalled)
		}
		failed += res.FailedTransactions
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	if failed == 0 {
		t.Fatal("no transaction was abandoned in any faulted case; the OnDeadDrop path is not covered")
	}
	const golden = "testdata/batch_digests.json"
	if *updateBatchDigests {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the matrix has %d cases", golden, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}
