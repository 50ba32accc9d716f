package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := v.Add(w); !got.Equal((Vector{5, 7, 9}), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal((Vector{3, 3, 3}), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal((Vector{2, 4, 6}), 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := (Vector{-3, 4}).Norm1(); got != 7 {
		t.Errorf("Norm1 = %g, want 7", got)
	}
	if got := (Vector{-3, 4}).NormInf(); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	if got := v.Dist(w); math.Abs(got-math.Sqrt(27)) > 1e-14 {
		t.Errorf("Dist = %g", got)
	}
	u := v.Clone()
	u.AddScaled(2, w)
	if !u.Equal((Vector{9, 12, 15}), 0) {
		t.Errorf("AddScaled = %v", u)
	}
	if !v.Equal((Vector{1, 2, 3}), 0) {
		t.Error("Clone aliases storage")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths must panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1})
	if !got.Equal((Vector{6, 15}), 1e-14) {
		t.Errorf("MulVec = %v", got)
	}
	gotT := m.TMulVec(Vector{1, 1})
	if !gotT.Equal((Vector{5, 7, 9}), 1e-14) {
		t.Errorf("TMulVec = %v", gotT)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := a.Mul(b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Mul: got %v, want %v", c.Data, want)
		}
	}
	at := a.Transpose()
	if at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Errorf("Transpose wrong: %v", at.Data)
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{2, 1, -1, -3, -1, 2, -2, 1, 2})
	b := Vector{8, -11, -3}
	x, err := SolveSystem(a, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal((Vector{2, 3, -1}), 1e-10) {
		t.Errorf("solution = %v, want [2 3 -1]", x)
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{3, 8, 4, 6})
	f, err := Factor(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); math.Abs(got-(-14)) > 1e-12 {
		t.Errorf("Det = %g, want -14", got)
	}
	if got := Identity(5); math.Abs(mustDet(t, got)-1) > 1e-14 {
		t.Error("det(I) != 1")
	}
}

func mustDet(t *testing.T, m *Matrix) float64 {
	t.Helper()
	f, err := Factor(m, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return f.Det()
}

func TestSingularDetection(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Factor(a, 1e-12); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.Normal()
		}
		f, err := Factor(a, 1e-12)
		if err != nil {
			continue // singular random draw; skip
		}
		inv := f.Inverse()
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("A*A^-1 not identity at (%d,%d): %g", i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestSolvePropertyRandomSystems(t *testing.T) {
	// Property: for random well-conditioned A and x, Solve(A, A x) == x.
	r := rng.New(999)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(5)
		a := Identity(n)
		// Diagonally dominant perturbation keeps the system well conditioned.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Data[i*n+j] += 0.3 * rr.Normal() / float64(n)
			}
			a.Data[i*n+i] += 2
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = rr.Normal()
		}
		b := a.MulVec(x)
		got, err := SolveSystem(a, b, 1e-12)
		if err != nil {
			return false
		}
		return got.Equal(x, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCholesky(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0, 6, 1, 0, -8, 5, 3}
	for i, v := range want {
		if math.Abs(l.Data[i]-v) > 1e-10 {
			t.Fatalf("Cholesky: got %v, want %v", l.Data, want)
		}
	}
	// Not positive definite.
	bad := NewMatrix(2, 2)
	copy(bad.Data, []float64{1, 2, 2, 1})
	if _, err := Cholesky(bad); err != ErrNotSPD {
		t.Errorf("expected ErrNotSPD, got %v", err)
	}
}

func TestAffineMapRoundTrip(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{2, 1, 0, 3})
	am, err := NewAffineMap(m, Vector{5, -1})
	if err != nil {
		t.Fatal(err)
	}
	x := Vector{1, 2}
	y := am.Apply(x)
	if !y.Equal((Vector{9, 5}), 1e-12) {
		t.Errorf("Apply = %v", y)
	}
	back := am.Invert(y)
	if !back.Equal(x, 1e-10) {
		t.Errorf("Invert(Apply(x)) = %v, want %v", back, x)
	}
	if got := am.DetAbs(); math.Abs(got-6) > 1e-12 {
		t.Errorf("DetAbs = %g, want 6", got)
	}
}

func TestAffineCompose(t *testing.T) {
	m1 := NewMatrix(2, 2)
	copy(m1.Data, []float64{2, 0, 0, 2})
	a, _ := NewAffineMap(m1, Vector{1, 0})
	m2 := NewMatrix(2, 2)
	copy(m2.Data, []float64{0, -1, 1, 0})
	b, _ := NewAffineMap(m2, Vector{0, 1})
	ab, err := a.Compose(b)
	if err != nil {
		t.Fatal(err)
	}
	x := Vector{3, 4}
	want := a.Apply(b.Apply(x))
	if got := ab.Apply(x); !got.Equal(want, 1e-12) {
		t.Errorf("Compose mismatch: %v vs %v", got, want)
	}
}

func TestIdentityMap(t *testing.T) {
	id := IdentityMap(3)
	x := Vector{1, -2, 3}
	if !id.Apply(x).Equal(x, 0) || !id.Invert(x).Equal(x, 0) {
		t.Error("identity map is not identity")
	}
	if id.DetAbs() != 1 {
		t.Error("identity determinant != 1")
	}
}

// TestInvertIntoMatchesMulVec: InvertInto forms M⁻¹(y − T) with the
// arithmetic of subtracting T into a copy and multiplying by the cached
// inverse, bit for bit — the walk's samples depend on it.
func TestInvertIntoMatchesMulVec(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		d := 1 + trial%6
		m := NewMatrix(d, d)
		for i := range m.Data {
			m.Data[i] = r.Normal()
		}
		for i := 0; i < d; i++ {
			m.Set(i, i, m.At(i, i)+3)
		}
		tr := make(Vector, d)
		y := make(Vector, d)
		for i := range tr {
			tr[i], y[i] = r.Normal(), 10*r.Normal()
		}
		am, err := NewAffineMap(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		z := y.Clone()
		for i := range z {
			z[i] -= tr[i]
		}
		want := am.inv.MulVec(z)
		got := am.InvertInto(make(Vector, d), y)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("d=%d: InvertInto = %v, want %v", d, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("InvertInto with a short destination must panic")
		}
	}()
	IdentityMap(3).InvertInto(make(Vector, 2), Vector{1, 2, 3})
}
