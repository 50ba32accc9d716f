package server

// Cluster benchmarks: the cost of the forwarding hop on the warm path —
// a warm forwarded draw vs a warm local draw at 16-point batches
// (target ≤ 2x), through /v1/sample, which names its target and
// compiles nothing, and through /v1/sql, which parses, compiles and
// canonicalizes on every node that resolves it — and the owner-hit
// ratio under a deterministic SpiderWeb-style key distribution (spatial
// grid tiles requested in a fixed diagonal-weighted sequence, the load
// shape of the spatial-data-generator literature). End-to-end cluster
// numbers come from perfbench's http_cluster workload
// (bash perfbench/run.sh --workload http_cluster).

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
)

// benchCluster builds a 3-node cluster with a registered tile program:
// a 4x4 grid of unit boxes C00..C33 plus the S/B/Q/C test program.
func benchCluster(b *testing.B) (*testCluster, []string) {
	b.Helper()
	tc := newTestCluster(b, 3, nil)
	src := testProgram
	var tiles []string
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			name := "C" + strconv.Itoa(i) + strconv.Itoa(j)
			tiles = append(tiles, name)
			src += "rel " + name + "(x, y) := { x >= " + strconv.Itoa(i) + ", x <= " + strconv.Itoa(i+1) +
				", y >= " + strconv.Itoa(j) + ", y <= " + strconv.Itoa(j+1) + " };\n"
		}
	}
	register(b, tc.urls[0], "bench", src)
	return tc, tiles
}

// drawVia posts one 16-point warm draw through the given ingress node.
func drawVia(b *testing.B, url, rel string) *http.Response {
	b.Helper()
	resp, body := postJSONHeaders(b, url+"/v1/sample",
		sampleRequest{Database: "bench", Relation: rel, N: 16, Seed: 11, Options: fastOpts}, nil)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("sample via %s: status %d, body %s", url, resp.StatusCode, body)
	}
	var out sampleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		b.Fatal(err)
	}
	if out.Cache != "hit" {
		b.Fatalf("cache = %q, want hit (warm it before timing)", out.Cache)
	}
	return resp
}

// warmS prepares relation S on its owner and returns (owner, non-owner)
// ingress URLs.
func warmS(b *testing.B, tc *testCluster) (ownerURL, forwardURL string) {
	b.Helper()
	owner := tc.ownerIndex(b, planKeyOf(b, "bench", testProgram, "S", fastOpts))
	// One cold exchange through each path warms the owner's cache and the
	// non-owner's warm-key set (so timed forwards skip the cold gate).
	for i := range tc.urls {
		postJSONHeaders(b, tc.urls[i]+"/v1/sample",
			sampleRequest{Database: "bench", Relation: "S", N: 16, Seed: 11, Options: fastOpts}, nil)
	}
	return tc.urls[owner], tc.urls[(owner+1)%len(tc.urls)]
}

// BenchmarkClusterWarmLocalDraw16 is the baseline: a 16-point warm draw
// served by the key's owner directly (one HTTP exchange, zero hops).
func BenchmarkClusterWarmLocalDraw16(b *testing.B) {
	tc, _ := benchCluster(b)
	ownerURL, _ := warmS(b, tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawVia(b, ownerURL, "S")
	}
}

// BenchmarkClusterWarmForwardedDraw16 is the same warm draw entering at
// a non-owner: one extra proxy hop to the owner's cache. The ratio to
// the local baseline is the forwarding overhead (target ≤ 2x).
func BenchmarkClusterWarmForwardedDraw16(b *testing.B) {
	tc, _ := benchCluster(b)
	_, forwardURL := warmS(b, tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := drawVia(b, forwardURL, "S")
		if resp.Header.Get("X-CDB-Owner") == "" {
			b.Fatal("draw was not forwarded — ingress node owns the key")
		}
	}
}

// sqlStmt is the /v1/sql counterpart of drawVia's request: 16 points of
// S under default options.
const sqlStmt = "SELECT * FROM S SAMPLE 16 SEED 11"

// sqlVia posts sqlStmt through the given ingress node.
func sqlVia(b *testing.B, url string) *http.Response {
	b.Helper()
	resp, out, body := postSQL(b, url, "bench", sqlStmt)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("sql via %s: status %d, body %s", url, resp.StatusCode, body)
	}
	if out.Cache != "hit" {
		b.Fatalf("cache = %q, want hit (warm it before timing)", out.Cache)
	}
	return resp
}

// warmSQL prepares sqlStmt's plan on its owner and returns (owner,
// non-owner) ingress URLs, like warmS.
func warmSQL(b *testing.B, tc *testCluster) (ownerURL, forwardURL string) {
	b.Helper()
	owner := tc.ownerIndex(b, planKeyOf(b, "bench", testProgram, "S", nil))
	for i := range tc.urls {
		postSQL(b, tc.urls[i], "bench", sqlStmt)
	}
	return tc.urls[owner], tc.urls[(owner+1)%len(tc.urls)]
}

// BenchmarkClusterWarmLocalSQL16 is the warm 16-point draw as a CDB-SQL
// statement entering at its owner, which resolves it once: parse,
// compile and canonicalize, then bind.
func BenchmarkClusterWarmLocalSQL16(b *testing.B) {
	tc, _ := benchCluster(b)
	ownerURL, _ := warmSQL(b, tc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlVia(b, ownerURL)
	}
}

// BenchmarkClusterWarmForwardedSQL16 is the same statement entering at
// a non-owner, which resolves it to find the owner and forwards it; the
// owner resolves it once more and serves it warm.
func BenchmarkClusterWarmForwardedSQL16(b *testing.B) {
	tc, _ := benchCluster(b)
	_, forwardURL := warmSQL(b, tc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := sqlVia(b, forwardURL)
		if resp.Header.Get("X-CDB-Owner") == "" {
			b.Fatal("statement was not forwarded — ingress node owns the key")
		}
	}
}

// BenchmarkClusterOwnerHitRatio replays a deterministic SpiderWeb-style
// workload — grid tiles in a diagonal-weighted visit order, ingress
// node rotating per request — and reports what fraction of requests
// entered at their key's owner (no hop needed). With 3 nodes and a
// balanced ring the ratio sits near 1/3; the complement is served
// warm via exactly one forward hop.
func BenchmarkClusterOwnerHitRatio(b *testing.B) {
	tc, tiles := benchCluster(b)
	// Diagonal weighting: tile (i,j) appears |4-|i-j|| times per sweep,
	// mimicking SpiderWeb's diagonal distribution without randomness.
	var visits []string
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			for r := 0; r < 4-d; r++ {
				visits = append(visits, tiles[i*4+j])
			}
		}
	}
	// Warm every tile once (untimed) so the measured sweep is pure
	// routing + warm draws.
	for _, rel := range visits {
		postJSONHeaders(b, tc.urls[0]+"/v1/sample",
			sampleRequest{Database: "bench", Relation: rel, N: 1, Seed: 5, Options: fastOpts}, nil)
	}
	ownerHits, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, rel := range visits {
			url := tc.urls[(i+k)%len(tc.urls)]
			resp, body := postJSONHeaders(b, url+"/v1/sample",
				sampleRequest{Database: "bench", Relation: rel, N: 16, Seed: 5, Options: fastOpts}, nil)
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("tile %s via %s: status %d, body %s", rel, url, resp.StatusCode, body)
			}
			total++
			if resp.Header.Get("X-CDB-Owner") == "" {
				ownerHits++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ownerHits)/float64(total), "owner_hit_ratio")
	b.ReportMetric(float64(len(visits)), "requests/op")
}
