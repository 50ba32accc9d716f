package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	cdb "repro"
)

// TestGeneratorDeterministic: one seed gives one catalog, one statement
// stream and one request schedule; another seed changes the constants.
func TestGeneratorDeterministic(t *testing.T) {
	_, bases := adhocProgram()
	snapshot := func(seed uint64) (string, []string, []statement, []warmReq, []clusterReq) {
		cat := newCatalog(seed)
		var names []string
		for _, tg := range cat.Targets {
			names = append(names, tg.Name+"|"+tg.SQL+"|"+tg.JSON+"|"+tg.Node.String())
		}
		var warm []warmReq
		var clu []clusterReq
		for i := 0; i < 400; i++ {
			warm = append(warm, warmRequest(cat, seed, i))
			clu = append(clu, clusterRequest(seed, i))
		}
		return cat.Program, names, adhocStream(seed, bases, 200), warm, clu
	}
	p1, n1, s1, w1, c1 := snapshot(7)
	p2, n2, s2, w2, c2 := snapshot(7)
	if p1 != p2 || !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("the same seed generated different inputs")
	}
	p3, _, s3, w3, _ := snapshot(8)
	if p3 == p1 {
		t.Error("seeds 7 and 8 generated the same catalog program")
	}
	for i := range s1 {
		if s1[i].Kind != s3[i].Kind {
			t.Fatalf("statement %d: kind %s vs %s; the mix must not depend on the seed", i, s1[i].Kind, s3[i].Kind)
		}
		if s1[i].Text == s3[i].Text {
			t.Fatalf("statement %d is the same for seeds 7 and 8: %s", i, s1[i].Text)
		}
	}
	if w1[0].seed == w3[0].seed {
		t.Error("seeds 7 and 8 draw with the same request seed")
	}
	seen := map[string]bool{}
	for _, st := range s1 {
		if seen[st.Text] {
			t.Fatalf("statement repeats within a stream: %s", st.Text)
		}
		seen[st.Text] = true
	}
}

// TestCatalogPrepares: every warm target prepares (or, for the
// ∃-projection, samples) and every adhoc statement kind runs, for two
// seeds.
func TestCatalogPrepares(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		cat := newCatalog(seed)
		h, err := openWarm(ctx, cat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracles, err := warmOracles(h, cat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, e := range h.exprs {
			pts, err := e.SampleNSeeded(ctx, 4, seed)
			if err == nil {
				err = oracles[i].checkPoints(pts, 4)
			}
			if err != nil {
				t.Errorf("seed %d target %s: %v", seed, cat.Targets[i].Name, err)
			}
		}
		h.db.Close()
	}
	src, bases := adhocProgram()
	db, err := cdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tl := &tally{}
	for _, st := range adhocStream(3, bases, len(adhocKinds)) {
		res, err := db.ExecSQL(ctx, st.Text)
		if err == nil {
			err = checkStatement(ctx, db, st, res, tl)
		}
		if err != nil {
			t.Errorf("%s: %v", st.Text, err)
		}
	}
	if tl.volumes == 0 {
		t.Error("the adhoc cycle answered no volume")
	}
}

// TestBinomialTail pins the correctness rule's tail probability.
func TestBinomialTail(t *testing.T) {
	for _, c := range []struct {
		n, k int
		want float64
	}{{9, 0, 1}, {9, 1, 1 - 0.387420489}, {9, 4, 0.0083}, {60, 0, 1}} {
		if got := binomialTail(c.n, c.k, 0.1); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("P(Bin(%d, 0.1) ≥ %d) = %.5f, want %.5f", c.n, c.k, got, c.want)
		}
	}
}
