// Package rng supplies the deterministic random-number machinery used
// throughout the pipeline: a xoshiro256** generator with splitmix64
// seeding, cheap substreams keyed by (seed, id) (so every worker, trial
// block, and risk source draws from an independent, reproducible
// stream), and the distribution samplers the catastrophe and DFA
// models need.
//
// Determinism is a hard requirement: the paper's "consistent lens"
// argument for pre-simulated YELTs (§II) is about actuaries seeing the
// same alternative views run over run, so every simulation in this
// repository is replayable from a (seed, stream) pair.
package rng

import "math/bits"

// splitmix64 advances the seed-expansion state and returns the next
// 64-bit value. It is used to seed xoshiro streams and to derive
// independent substream seeds from a (seed, id) pair.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** pseudo-random generator. The zero value is
// not usable; construct with New or NewStream, or call Reseed. Streams
// are not safe for concurrent use — give each goroutine its own stream
// (that is the point of NewStream / Split).
type Stream struct {
	s [4]uint64
	// cached second normal from the polar method
	hasSpare bool
	spare    float64
}

// New returns a stream seeded from a single 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.seed(seed)
	return st
}

// seed puts st in the state New(seed) returns: the four words expanded
// from seed, no cached normal.
func (st *Stream) seed(seed uint64) {
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	st.hasSpare = false
}

// NewStream returns the id-th independent stream of a seed. Two calls
// with the same (seed, id) produce identical streams; different ids
// produce streams whose seeds are separated by splitmix64 avalanche,
// the standard construction for task-parallel Monte Carlo.
func NewStream(seed, id uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed, id)
	return st
}

// Reseed turns st, in place, into the stream NewStream(seed, id)
// returns: same state, same draws, any cached normal dropped. A loop
// that needs one substream per item (a trial, a task) reseeds one
// stream per worker instead of allocating one per item. It also makes
// a zero Stream usable.
func (st *Stream) Reseed(seed, id uint64) {
	sm := seed ^ (id+1)*0xd1342543de82ef95
	st.seed(splitmix64(&sm))
}

// Uint64 returns the next value of the xoshiro256** sequence.
func (st *Stream) Uint64() uint64 {
	s := &st.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly 0 —
// safe to pass to log() and inverse-CDF transforms.
func (st *Stream) Float64Open() float64 {
	for {
		if u := st.Float64(); u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection avoids modulo bias.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(st.Uint64(), un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(st.Uint64(), un)
		}
	}
	return int(hi)
}
