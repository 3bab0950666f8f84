package main

import (
	"io"
	"math"
	"testing"
	"time"

	"bmac/internal/cluster"
	"bmac/internal/metrics"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	cands := []float64{50, 90, 95, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{200, 95, true},     // p95 leaves 10 beyond, p99 only 2
		{199, 90, true},     // p95 would leave 9
		{1000, 99, true},    // p99 leaves exactly 10
		{10000, 99.9, true}, // p99.9 leaves 10
		{100, 90, true},
		{19, 0, false}, // even p50 leaves only 9
	} {
		got, ok := tailPercentile(tc.n, 10, cands...)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d: got p%v (%v), want p%v (%v)", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestFailedRatio(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 100, 0}, {5, 100, 0.05}, {100, 100, 1}, {0, 0, 1},
	} {
		if got := failedRatio(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failedRatio(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
}

func TestClusterFailureAccounting(t *testing.T) {
	// A load client aborted by the endorser race: 82 never submitted, all
	// submitted transactions committed at the observer, 18 of them without
	// a BMac result.
	partial := clusterRun{requested: 1500, res: &cluster.Result{
		Submitted: 1418, Txs: 1418, HWLatency: metrics.LatencySummary{Count: 1400}, Elapsed: time.Second,
	}}
	a, u, m := partial.failures()
	if a != 82 || u != 0 || m != 18 {
		t.Errorf("partial run: aborted %d uncommitted %d missing %d, want 82 0 18", a, u, m)
	}
	// The observer timed out short of everything submitted.
	short := clusterRun{requested: 100, res: &cluster.Result{
		Submitted: 100, Txs: 90, HWLatency: metrics.LatencySummary{Count: 90},
	}}
	if a, u, m := short.failures(); a != 0 || u != 10 || m != 0 {
		t.Errorf("short run: aborted %d uncommitted %d missing %d, want 0 10 0", a, u, m)
	}
	// No result at all fails every requested transaction.
	none := clusterRun{requested: 1500}
	if a, u, m := none.failures(); a+u+m != 1500 {
		t.Errorf("run without result failed %d, want 1500", a+u+m)
	}
	b := &bench{ps: map[string]*pathStats{pathSeq: {txs: 1000}}, clusters: []clusterRun{partial, none}, out: io.Discard}
	attempted, failed := b.failures()
	if attempted != 4000 || failed != 1600 || failedRatio(failed, attempted) != 0.4 {
		t.Errorf("run totals: attempted %d failed %d", attempted, failed)
	}
}
