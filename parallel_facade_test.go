package cdb_test

import (
	"testing"

	cdb "repro"
	"repro/internal/core"
)

func TestMedianVolumeFacade(t *testing.T) {
	rel := cdb.MustRelation("R", []string{"x", "y"}, cdb.Cube(2, 0, 3))
	v, err := core.MedianVolume(rel, 5, 11, cdb.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v < 6.5 || v > 12.5 {
		t.Errorf("median volume = %g, want ~9", v)
	}
}

func TestSampleManyFacade(t *testing.T) {
	rel := cdb.MustRelation("R", []string{"x"}, cdb.Cube(1, 0, 1), cdb.Cube(1, 4, 5))
	ps, err := cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ps.SampleMany(200, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 200 {
		t.Fatalf("samples = %d", len(pts))
	}
	low := 0
	for _, p := range pts {
		if !rel.Contains(p) {
			t.Fatalf("sample %v outside the relation", p)
		}
		if p[0] < 2 {
			low++
		}
	}
	if low == 0 || low == 200 {
		t.Error("parallel sampling missed a union component")
	}
}
