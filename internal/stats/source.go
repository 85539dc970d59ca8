package stats

// source is math/rand's additive lagged Fibonacci generator (607 words,
// tap 273, the same cooked table), producing the same bits as
// rand.NewSource for every seed. Two things differ, both in seeding.
//
// math/rand seeds by running a Lehmer LCG, x ← 48271·x mod (2³¹−1),
// 20 steps and then three more per entry: entry i is built from the LCG
// states at steps 21+3i, 22+3i and 23+3i, 1,841 serial steps in all.
// Since x_k = s·48271^k mod (2³¹−1), source jumps straight to entry i's
// first state with one multiply by seedPow[i] and takes the other two
// by single steps, so no entry waits on another.
//
// And it seeds an entry only when a draw first touches it. Draw k
// (counting from 1 after a seed) reads feed index 334−k and tap index
// 607−k. Draws 1–273 are the first touch of both entries, draws 274–334
// of the feed entry only (the tap reads what the feed wrote 273 draws
// earlier), and from draw 335 on both pointers land on entries already
// seeded. So one counter, seeded, guards the lazy path, and a stream
// that draws a handful of values seeds a handful of entries.
type source struct {
	tap    int   // index into vec
	feed   int   // index into vec
	seeded int   // draws since Seed, up to lazyDraws
	seed   int64 // the LCG's start state, in [1, 2³¹−2]
	vec    [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lazyDraws is how many draws after a seed can still touch an
	// unseeded entry.
	lazyDraws = rngLen - rngTap
)

// seedPow[i] is 48271^(21+3i) mod (2³¹−1): the LCG multiplier that
// takes the seed straight to entry i's first state.
var seedPow = func() (pow [rngLen]int64) {
	x := int64(1)
	for k := 0; k < 21; k++ {
		x = lcg(x)
	}
	for i := range pow {
		pow[i] = x
		x = lcg(lcg(lcg(x)))
	}
	return pow
}()

// lcg is one step of math/rand's seeding LCG (its seedrand), exact in
// 64-bit arithmetic for x in [0, 2³¹−1).
func lcg(x int64) int64 { return x * 48271 % int32max }

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed re-seeds the generator, lazily: the counter reset makes the next
// 334 draws seed what they touch before reading it.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.seeded = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = seed
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.seeded < lazyDraws {
		s.seeded++
		s.vec[s.feed] = s.entry(s.feed)
		if s.seeded <= rngTap {
			s.vec[s.tap] = s.entry(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// entry returns the value math/rand's Seed stores in vec[i].
func (s *source) entry(i int) int64 {
	x := s.seed * seedPow[i] % int32max
	y := lcg(x)
	z := lcg(y)
	return x<<40 ^ y<<20 ^ z ^ rngCooked[i]
}
