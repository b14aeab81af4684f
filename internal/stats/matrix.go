package stats

import (
	"fmt"
	"strings"
)

// DistMatrix is a symmetric distance matrix over n items with zero
// diagonal, stored densely. It underlies stream- and patient-similarity
// analysis in internal/cluster.
type DistMatrix struct {
	n int
	d []float64 // row-major n x n
}

// NewDistMatrix allocates an n x n zero matrix.
func NewDistMatrix(n int) *DistMatrix {
	if n < 0 {
		panic("stats: negative distance matrix size")
	}
	return &DistMatrix{n: n, d: make([]float64, n*n)}
}

// Size returns the number of items.
func (m *DistMatrix) Size() int { return m.n }

// Set stores the symmetric distance between items i and j.
func (m *DistMatrix) Set(i, j int, v float64) {
	m.d[i*m.n+j] = v
	m.d[j*m.n+i] = v
}

// At returns the distance between items i and j.
func (m *DistMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// Row returns a copy of row i.
func (m *DistMatrix) Row(i int) []float64 {
	out := make([]float64, m.n)
	copy(out, m.d[i*m.n:(i+1)*m.n])
	return out
}

// MeanOffDiagonal returns the mean of all off-diagonal entries,
// or 0 when n < 2.
func (m *DistMatrix) MeanOffDiagonal() float64 {
	if m.n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i != j {
				s += m.At(i, j)
			}
		}
	}
	return s / float64(m.n*(m.n-1))
}

// String renders the matrix with three decimals, for reports and
// debugging.
func (m *DistMatrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%7.3f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
