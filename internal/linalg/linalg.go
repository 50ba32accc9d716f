// Package linalg implements the small dense linear algebra kernel used by
// the samplers: vectors, matrices, LU decomposition with partial pivoting
// (solve, inverse, determinant), Cholesky factorisation, and invertible
// affine maps.
//
// Dimensions in this repository are modest (d ≲ 50), so everything is
// dense, allocation-conscious, and written for clarity over blocking.
package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorisation meets a numerically
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNotSPD is returned by Cholesky when the input is not symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix not positive definite")

// errDotMismatch is Dot's panic value for vectors of unequal length. A
// sentinel rather than a formatted message keeps Dot small enough to
// inline into the membership and chord loops that call it per row.
var errDotMismatch = errors.New("linalg: Dot dimension mismatch")

// Vector is a point or direction in R^d.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product v·w. The vectors must have equal length.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(errDotMismatch)
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm1 returns the l1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the l-infinity norm of v.
func (v Vector) NormInf() float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	u := v.Clone()
	for i := range u {
		u[i] += w[i]
	}
	return u
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	u := v.Clone()
	for i := range u {
		u[i] -= w[i]
	}
	return u
}

// Scale returns s*v as a new vector.
func (v Vector) Scale(s float64) Vector {
	u := v.Clone()
	for i := range u {
		u[i] *= s
	}
	return u
}

// AddScaled sets v = v + s*w in place.
func (v Vector) AddScaled(s float64, w Vector) {
	for i := range v {
		v[i] += s * w[i]
	}
}

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Equal reports whether v and w agree within tol component-wise.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the d x d identity matrix.
func Identity(d int) *Matrix {
	m := NewMatrix(d, d)
	for i := 0; i < d; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns row i as a vector sharing no storage with m.
func (m *Matrix) Row(i int) Vector {
	r := make(Vector, m.Cols)
	copy(r, m.Data[i*m.Cols:(i+1)*m.Cols])
	return r
}

// MulVec returns m * v.
func (m *Matrix) MulVec(v Vector) Vector {
	if len(v) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// TMulVec returns m^T * v.
func (m *Matrix) TMulVec(v Vector) Vector {
	if len(v) != m.Rows {
		panic("linalg: TMulVec dimension mismatch")
	}
	out := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		for j, x := range row {
			out[j] += x * vi
		}
	}
	return out
}

// Mul returns m * n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic("linalg: Mul dimension mismatch")
	}
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.Data[i*out.Cols+j] += a * n.At(k, j)
			}
		}
	}
	return out
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// LU holds the partial-pivoting factorisation PA = LU of a square matrix.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// Factor computes the LU decomposition of the square matrix a. It returns
// ErrSingular when a pivot falls below tol.
func Factor(a *Matrix, tol float64) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Factor requires a square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivoting.
		best, bestAbs := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if bestAbs <= tol {
			return nil, ErrSingular
		}
		if best != col {
			for j := 0; j < n; j++ {
				lu.Data[best*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[best*n+j]
			}
			pivot[best], pivot[col] = pivot[col], pivot[best]
			sign = -sign
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Data[r*n+j] -= f * lu.Data[col*n+j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve returns x with A x = b.
func (f *LU) Solve(b Vector) Vector {
	n := f.lu.Rows
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return x
}

// Det returns det(A).
func (f *LU) Det() float64 {
	det := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		det *= f.lu.At(i, i)
	}
	return det
}

// Inverse returns A^{-1}.
func (f *LU) Inverse() *Matrix {
	n := f.lu.Rows
	inv := NewMatrix(n, n)
	e := make(Vector, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}

// SolveSystem solves A x = b directly, returning ErrSingular for
// numerically singular systems.
func SolveSystem(a *Matrix, b Vector, tol float64) (Vector, error) {
	f, err := Factor(a, tol)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Cholesky returns the lower-triangular L with A = L L^T for a symmetric
// positive definite A.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotSPD
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// AffineMap is the invertible map x -> M x + T.
type AffineMap struct {
	M *Matrix
	T Vector
	// inv caches M^{-1}; it is computed on first use.
	inv    *Matrix
	detAbs float64
}

// NewAffineMap builds an affine map and eagerly validates invertibility.
// The pivot tolerance is relative to m's largest entry, so a map is
// judged by its conditioning, not its scale: the rounding map
// diag(1/r) of a body with inner radius r = 10⁵⁰ is as invertible as
// the one for r = 1.
func NewAffineMap(m *Matrix, t Vector) (*AffineMap, error) {
	var scale float64
	for _, v := range m.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	f, err := Factor(m, 1e-12*scale)
	if err != nil {
		return nil, err
	}
	return &AffineMap{M: m, T: t, inv: f.Inverse(), detAbs: math.Abs(f.Det())}, nil
}

// IdentityMap returns the identity affine map on R^d.
func IdentityMap(d int) *AffineMap {
	am, _ := NewAffineMap(Identity(d), NewVector(d))
	return am
}

// Apply returns M x + T.
func (a *AffineMap) Apply(x Vector) Vector {
	y := a.M.MulVec(x)
	for i := range y {
		y[i] += a.T[i]
	}
	return y
}

// Invert returns M^{-1} (y - T).
func (a *AffineMap) Invert(y Vector) Vector {
	return a.InvertInto(make(Vector, len(y)), y)
}

// InvertInto writes M^{-1} (y - T) into dst and returns dst, with
// Invert's arithmetic bit for bit: each y_j - T_j is formed once and the
// products are summed row by row from zero. dst must have y's length and
// must not overlap y.
func (a *AffineMap) InvertInto(dst, y Vector) Vector {
	n := a.inv.Cols
	if len(y) != n || len(dst) != a.inv.Rows {
		panic("linalg: InvertInto dimension mismatch")
	}
	y, t := y[:n], a.T[:n]
	for i := range dst {
		row := a.inv.Data[i*n : (i+1)*n]
		var s float64
		for j, x := range row {
			s += x * (y[j] - t[j])
		}
		dst[i] = s
	}
	return dst
}

// InvertLinearInto writes M^{-1} v into dst and returns dst: the
// pre-image of a direction, which the translation does not touch. dst
// must have v's length and must not overlap v.
func (a *AffineMap) InvertLinearInto(dst, v Vector) Vector {
	n := a.inv.Cols
	if len(v) != n || len(dst) != a.inv.Rows {
		panic("linalg: InvertLinearInto dimension mismatch")
	}
	for i := range dst {
		dst[i] = Vector(a.inv.Data[i*n : (i+1)*n]).Dot(v)
	}
	return dst
}

// DetAbs returns |det M|, the volume scaling factor of the map.
func (a *AffineMap) DetAbs() float64 { return a.detAbs }

// InvTMulVec returns (M^{-1})^T v, the normal-vector transform used when
// mapping halfspaces through the affine map.
func (a *AffineMap) InvTMulVec(v Vector) Vector { return a.inv.TMulVec(v) }

// Compose returns the map x -> a(b(x)).
func (a *AffineMap) Compose(b *AffineMap) (*AffineMap, error) {
	m := a.M.Mul(b.M)
	t := a.M.MulVec(b.T)
	for i := range t {
		t[i] += a.T[i]
	}
	return NewAffineMap(m, t)
}
