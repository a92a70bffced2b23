package rng

import (
	"errors"
	"math"
)

// ErrBadWeights is returned by NewAlias when the weight vector is
// empty, contains negatives/NaN, or sums to zero.
var ErrBadWeights = errors.New("rng: weights must be non-negative and sum > 0")

// Alias samples from a fixed discrete distribution in O(1) per draw
// using Vose's alias method. The aggregate engine uses it to sample
// event identities when synthesizing YELTs from catalogue rates:
// building the table is O(n) once, after which a million trial years
// draw events at constant cost.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the given (unnormalized) weights.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrBadWeights
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, ErrBadWeights
		}
		sum += w
	}
	if sum <= 0 {
		return nil, ErrBadWeights
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small { // numerical leftovers
		a.prob[i] = 1
	}
	return a, nil
}

// Draw returns an index distributed according to the table's weights.
func (a *Alias) Draw(st *Stream) int {
	i := st.Intn(len(a.prob))
	if st.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
