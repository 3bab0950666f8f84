package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the record that names the metrics the runs must print.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var ours []string
	for n := range workloads {
		ours = append(ours, n)
	}
	sort.Strings(ours)
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for _, name := range ours {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// TestSmokeClusterOpen runs the workload kept out of BENCHMARK.json. A
// load client aborted by the endorser race is counted, not an error.
func TestSmokeClusterOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster end to end")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", clusterWorkload, "--seed", "5", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"cluster.cpu_us_per_tx", "cluster.goodput_tps", "cluster.p99_ms", "tx_failed_ratio", "load.aborted_txs"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("no metric %s", name)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "replay-cold", "--seconds", "0"},
		{"--workload", "replay-cold", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
