package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	x, err := SolveLinear([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	_, err := SolveLinear([][]float64{{1, 2}, {2, 4}}, []float64{3, 6})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	x, err := SolveLinear([][]float64{{0, 1}, {1, 0}}, []float64{2, 3})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square system accepted")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched b accepted")
	}
}

func TestLeastSquaresExactSystem(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	b := []float64{2, 3, 5}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatalf("SolveLeastSquares: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdeterminedNoisy(t *testing.T) {
	// Fit y = 2 + 3t from noisy samples; estimate within tolerance.
	rng := rand.New(rand.NewSource(5))
	var a [][]float64
	var b []float64
	for i := 0; i < 200; i++ {
		ti := float64(i) / 10
		a = append(a, []float64{1, ti})
		b = append(b, 2+3*ti+(rng.Float64()-0.5)*0.01)
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatalf("SolveLeastSquares: %v", err)
	}
	if math.Abs(x[0]-2) > 0.01 || math.Abs(x[1]-3) > 0.01 {
		t.Errorf("x = %v, want ≈[2 3]", x)
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	if _, err := SolveLeastSquares(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := SolveLeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined accepted")
	}
	if _, err := SolveLeastSquares([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := SolveLeastSquares([][]float64{{1}, {1}}, []float64{1}); err == nil {
		t.Error("wrong b length accepted")
	}
}

// Property: solving A x* = b for random well-conditioned square systems
// recovers x*.
func TestPropertySolveLinearRecovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		want := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) * 3 // diagonal dominance → well conditioned
			want[i] = rng.NormFloat64() * 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range want {
				b[i] += a[i][j] * want[j]
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	tests := []struct {
		a, b, x float64
		want    float64
	}{
		{1, 1, 0.3, 0.3},     // uniform CDF
		{2, 2, 0.5, 0.5},     // symmetric
		{2, 1, 0.5, 0.25},    // x²
		{0.5, 0.5, 0.5, 0.5}, // arcsine, symmetric
		{5, 3, 0, 0},         // boundary
		{5, 3, 1, 1},         // boundary
		{2, 3, 0.4, 0.5248},  // 1-(1-x)^3(1+3x) at .4 → checked numerically
	}
	for _, tt := range tests {
		got := RegIncBeta(tt.a, tt.b, tt.x)
		if math.Abs(got-tt.want) > 1e-3 {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", tt.a, tt.b, tt.x, got, tt.want)
		}
	}
}

func TestStudentTCDF(t *testing.T) {
	// Symmetry and known quantiles.
	if got := StudentTCDF(0, 10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF(0) = %v, want 0.5", got)
	}
	// t distribution with nu=1 (Cauchy): CDF(1) = 0.75.
	if got := StudentTCDF(1, 1); math.Abs(got-0.75) > 1e-6 {
		t.Errorf("Cauchy CDF(1) = %v, want 0.75", got)
	}
	// Large nu approaches the normal distribution.
	if got := StudentTCDF(1.96, 1e6); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("CDF(1.96, 1e6) = %v, want ≈0.975", got)
	}
	// Symmetry: CDF(-t) = 1 - CDF(t).
	for _, tv := range []float64{0.5, 1.3, 2.7} {
		l, r := StudentTCDF(-tv, 7), 1-StudentTCDF(tv, 7)
		if math.Abs(l-r) > 1e-9 {
			t.Errorf("asymmetric CDF at %v: %v vs %v", tv, l, r)
		}
	}
	if !math.IsNaN(StudentTCDF(1, 0)) {
		t.Error("CDF with nu=0 should be NaN")
	}
}

func TestStudentTSF(t *testing.T) {
	// Agreement with the CDF where 1 − CDF is still resolvable.
	for _, tc := range []struct{ tv, nu float64 }{
		{0, 10}, {0.5, 3}, {1.3, 7}, {2.7, 7}, {-1.3, 7}, {4, 25},
	} {
		got := StudentTSF(tc.tv, tc.nu)
		want := 1 - StudentTCDF(tc.tv, tc.nu)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("SF(%v, %v) = %v, want 1-CDF = %v", tc.tv, tc.nu, got, want)
		}
	}
	// Known value: for nu=1 (Cauchy), P(T > 1) = 0.25.
	if got := StudentTSF(1, 1); math.Abs(got-0.25) > 1e-6 {
		t.Errorf("Cauchy SF(1) = %v, want 0.25", got)
	}
	// The whole point: deep tails stay nonzero where 1 − CDF cancels
	// to exactly 0.
	if got := 1 - StudentTCDF(40, 30); got != 0 {
		t.Skipf("1-CDF(40, 30) = %v resolves on this platform; cancellation premise gone", got)
	}
	tail := StudentTSF(40, 30)
	if !(tail > 0) {
		t.Fatalf("SF(40, 30) = %v, want > 0", tail)
	}
	if tail > 1e-20 {
		t.Errorf("SF(40, 30) = %v, want a deep-tail probability < 1e-20", tail)
	}
	// Still monotone in t out in the tail.
	if !(StudentTSF(50, 30) < tail) {
		t.Errorf("SF not monotone: SF(50) = %v >= SF(40) = %v", StudentTSF(50, 30), tail)
	}
	if !math.IsNaN(StudentTSF(1, 0)) {
		t.Error("SF with nu=0 should be NaN")
	}
}

// Property: RegIncBeta is a CDF — monotone in x and bounded to [0,1].
func TestPropertyRegIncBetaMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := 0.5 + float64(aRaw%40)/4
		b := 0.5 + float64(bRaw%40)/4
		prev := 0.0
		for i := 0; i <= 50; i++ {
			x := float64(i) / 50
			v := RegIncBeta(a, b, x)
			if v < prev-1e-9 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
