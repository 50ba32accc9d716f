package dataset

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/rng"
)

func TestRandomPolytopeBoundedNonEmpty(t *testing.T) {
	r := rng.New(1)
	for d := 2; d <= 5; d++ {
		p := RandomPolytope(r, d, 2*d, 0.8)
		if p.IsEmpty() {
			t.Fatalf("d=%d: random polytope empty (tangent sphere keeps the origin inside)", d)
		}
		if !p.Contains(make(linalg.Vector, d)) {
			t.Errorf("d=%d: origin must stay inside (cuts tangent to radius-0.8 sphere)", d)
		}
		if _, _, err := p.BoundingBox(); err != nil {
			t.Errorf("d=%d: bounding box: %v", d, err)
		}
	}
}

func TestRandomPolytopeCutsBite(t *testing.T) {
	r := rng.New(2)
	p := RandomPolytope(r, 3, 20, 0.5)
	v, err := p.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if v >= 8 {
		t.Errorf("20 tangent cuts at radius 0.5 must reduce the cube volume, got %g", v)
	}
	if v <= 0 {
		t.Error("volume must stay positive")
	}
}

func TestRandomRotationOrthogonal(t *testing.T) {
	r := rng.New(3)
	for d := 2; d <= 6; d++ {
		rot := RandomRotation(r, d)
		// Columns orthonormal: M^T M = I.
		mt := rot.M.Transpose()
		prod := mt.Mul(rot.M)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-9 {
					t.Fatalf("d=%d: M^T M != I at (%d,%d): %g", d, i, j, prod.At(i, j))
				}
			}
		}
		if math.Abs(rot.DetAbs()-1) > 1e-9 {
			t.Errorf("d=%d: |det| = %g, want 1", d, rot.DetAbs())
		}
	}
}

func TestRotatedBoxPreservesVolume(t *testing.T) {
	r := rng.New(4)
	p := RotatedBox(r, []float64{1, 2, 0.5})
	v, err := p.Volume()
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0 * 1 * 2 * 0.5 // prod(2*halfExtent)
	if num.RelErr(v, want) > 1e-6 {
		t.Errorf("rotated box volume = %g, want %g", v, want)
	}
}

func TestDumbbellStructure(t *testing.T) {
	rel := Dumbbell(2, 10, 0.05)
	if len(rel.Tuples) != 3 {
		t.Fatalf("dumbbell tuples = %d, want 3", len(rel.Tuples))
	}
	// Left cube, right cube, tube midpoint.
	if !rel.Contains(linalg.Vector{0, 0}) {
		t.Error("left cube missing")
	}
	if !rel.Contains(linalg.Vector{9, 0}) {
		t.Error("right cube missing")
	}
	if !rel.Contains(linalg.Vector{5, 0}) {
		t.Error("tube missing")
	}
	if rel.Contains(linalg.Vector{5, 0.5}) {
		t.Error("point above the tube must be outside")
	}
	if rel.Contains(linalg.Vector{20, 0}) {
		t.Error("far point must be outside")
	}
}

func TestParcelMapGeneratesParcels(t *testing.T) {
	r := rng.New(5)
	m := NewParcelMap(r, 40, 100)
	if len(m.Parcels) < 30 {
		t.Fatalf("parcels = %d, want most of 40", len(m.Parcels))
	}
	kinds := map[string]int{}
	for _, p := range m.Parcels {
		kinds[p.Kind]++
		// Parcels stay inside the map.
		a, b := p.Tuple.System()
		for i := range a {
			_ = b[i]
		}
	}
	if len(kinds) < 2 {
		t.Errorf("kinds seen = %v, want variety", kinds)
	}
	rel := m.Relation("")
	if len(rel.Tuples) != len(m.Parcels) {
		t.Error("full relation must include every parcel")
	}
	res := m.Relation("residential")
	if len(res.Tuples) != kinds["residential"] {
		t.Error("kind filter wrong")
	}
}

func TestParcelsInsideExtent(t *testing.T) {
	r := rng.New(6)
	m := NewParcelMap(r, 30, 50)
	rel := m.Relation("")
	lo, hi, ok := rel.BoundingBox()
	if !ok {
		t.Fatal("parcel map must be bounded")
	}
	if lo[0] < -1e-9 || lo[1] < -1e-9 || hi[0] > 50+1e-9 || hi[1] > 50+1e-9 {
		t.Errorf("parcels leak outside the map: %v..%v", lo, hi)
	}
}

func TestZoneOctagon(t *testing.T) {
	z := Zone(10, 10, 2)
	if !z.Contains(linalg.Vector{10, 10}) || !z.Contains(linalg.Vector{11.5, 10}) {
		t.Error("zone must contain its centre and interior")
	}
	if z.Contains(linalg.Vector{13, 10}) {
		t.Error("zone must exclude points beyond its radius")
	}
}

func TestHighDimPipeline(t *testing.T) {
	r := rng.New(7)
	p := HighDimPipeline(r, 2, 3, 6)
	if p.Dim() != 5 {
		t.Fatalf("pipeline dim = %d, want 5", p.Dim())
	}
	if p.IsEmpty() {
		t.Error("pipeline polytope empty")
	}
}

func TestTangentBall(t *testing.T) {
	p := TangentBall(64)
	vol, err := p.Volume()
	if err != nil {
		t.Fatal(err)
	}
	// Circumscribes the unit ball (4π/3 ≈ 4.19), within a few percent.
	if vol < 4*math.Pi/3 || vol > 4.6 {
		t.Fatalf("volume %g, want just above the unit ball's 4.19", vol)
	}
	up, lo := 0, 0
	for _, a := range p.A {
		switch {
		case a[2] > 0:
			up++
		case a[2] < 0:
			lo++
		}
	}
	if up != 32 || lo != 32 {
		t.Fatalf("%d upper and %d lower bounds on x2, want 32 and 32", up, lo)
	}
}
