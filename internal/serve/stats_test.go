package serve

import (
	"cmp"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/olive-vne/olive/internal/obs"
)

// TestStatsMatchesMetrics drives a deterministic 2-shard server and holds
// /v1/stats to a /metrics scrape taken after it: the latency quantiles
// and sample count must be vne_request_duration_seconds's, and revenue
// must be vne_revenue_total and the Σ demand·duration of the accepted
// replies, summed as the server sums it (per shard in decision order,
// then over the shards).
func TestStatsMatchesMetrics(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 2, Deterministic: true})
	shardRevenue := make([]float64, 2)
	accepted, rejected := 0, 0
	for _, sr := range testStream(t, 400) {
		resp, out := postEmbed(t, ts.URL, sr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("embed = %d", resp.StatusCode)
		}
		if !out.Accepted {
			rejected++
			continue
		}
		accepted++
		shardRevenue[out.Shard] += sr.Demand * float64(sr.Duration)
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("vacuous stream: %d accepted, %d rejected", accepted, rejected)
	}
	wantRevenue := shardRevenue[0] + shardRevenue[1]

	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.Lint(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Replay the scraped buckets into a histogram with the same bounds:
	// its quantiles are those of the scraped distribution.
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	var count float64
	for _, smp := range fams["vne_request_duration_seconds"].Samples {
		switch {
		case strings.HasSuffix(smp.Name, "_bucket"):
			le, err := strconv.ParseFloat(smp.Labels["le"], 64)
			if err != nil {
				t.Fatal(err)
			}
			buckets = append(buckets, bucket{le, smp.Value})
		case strings.HasSuffix(smp.Name, "_count"):
			count = smp.Value
		}
	}
	slices.SortFunc(buckets, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	var bounds []float64
	for _, b := range buckets[:len(buckets)-1] { // the last is +Inf
		bounds = append(bounds, b.le)
	}
	h := obs.NewRegistry().Histogram("scraped", "scraped", bounds)
	prev := 0.0
	for i, b := range buckets {
		v := 2 * bounds[len(bounds)-1]
		if i < len(bounds) {
			v = bounds[i]
		}
		for ; prev < b.cum; prev++ {
			h.Observe(v)
		}
	}
	us := func(q float64) int64 { return int64(math.Round(h.Quantile(q) * 1e6)) }

	if st.Latency.Samples != int64(count) || st.Latency.Samples != int64(accepted+rejected) {
		t.Errorf("stats samples %d, histogram count %g, embeds answered %d", st.Latency.Samples, count, accepted+rejected)
	}
	for _, c := range []struct {
		q    float64
		stat int64
	}{{0.50, st.Latency.P50US}, {0.90, st.Latency.P90US}, {0.99, st.Latency.P99US}, {0.999, st.Latency.P999US}} {
		if want := us(c.q); c.stat != want {
			t.Errorf("stats p%g = %dµs, the scraped histogram's %dµs", 100*c.q, c.stat, want)
		}
	}
	if st.Latency.P50US <= 0 || st.Latency.P999US < st.Latency.P50US {
		t.Errorf("latency quantiles not positive and monotone: %+v", st.Latency)
	}

	metRevenue := fams["vne_revenue_total"].Samples[0].Value
	if st.Revenue != metRevenue || st.Revenue != wantRevenue {
		t.Errorf("revenue: stats %v, vne_revenue_total %v, accepted replies %v", st.Revenue, metRevenue, wantRevenue)
	}
}
