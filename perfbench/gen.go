package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// rng is splitmix64: tiny, seedable and fast enough to draw one key
// per operation without showing up next to a 1 µs store call.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform draw in [0, n) (Lemire's multiply-shift).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// keySampler draws key indexes in [0, n): uniform, or zipfian with
// YCSB's generator (Gray et al., "Quickly generating billion-record
// synthetic databases"). Zipf ranks are scattered over the key space
// by a seeded permutation, so the hot keys land on different shards
// for different seeds instead of all hashing the same way.
type keySampler struct {
	n uint64
	// zipf constants; half is the zeta of the first two ranks
	alpha, zetan, eta, half float64
	perm                    []uint32
}

func newUniform(n int) *keySampler { return &keySampler{n: uint64(n)} }

func newZipf(n int, theta float64, seed uint64) *keySampler {
	z := &keySampler{n: uint64(n), half: 1 + math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	z.perm = make([]uint32, n)
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	r := newRNG(seed, 1<<32)
	for i := n - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *keySampler) next(r *rng) uint64 {
	if z.perm == nil {
		return r.intn(z.n)
	}
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return uint64(z.perm[rank])
}

// drawOp draws one YCSB-style operation: a key, whether it is a read,
// and for a write the value size. The store workloads and the wire
// generator share it, so one seed gives one op stream.
func drawOp(r *rng, ks *keySampler, getPct uint64, size func(*rng) int) (key uint64, get bool, n int) {
	key = ks.next(r)
	if r.intn(100) < getPct {
		return key, true, 0
	}
	return key, false, size(r)
}

// keyStrings builds the store key for every index. Keys are fixed
// width so every request line on the wire has the same length.
func keyStrings(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		s := strconv.Itoa(i)
		ks[i] = "user" + "0000000"[:7-len(s)] + s
	}
	return ks
}

// Value encoding. Every value is a pure function of (key, version,
// length), so a reader can check any value it gets back without
// knowing which write it came from: a torn, recycled, misdirected or
// truncated value fails the check. Values shorter than 8 bytes carry
// the version's low 24 bits (enough to tell writes apart; the rest of
// the bytes are keyed by it), longer ones the whole 64-bit version.

// versionBytes is how many leading bytes of an n-byte value hold the
// version.
func versionBytes(n int) int {
	if n < 8 {
		return 3
	}
	return 8
}

// encodeValue writes the n-byte value for (key, ver) into dst[:0].
func encodeValue(dst []byte, key, ver uint64, n int) []byte {
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	vb := versionBytes(n)
	if vb == 3 {
		ver &= 1<<24 - 1
		dst[0], dst[1], dst[2] = byte(ver), byte(ver>>8), byte(ver>>16)
	} else {
		binary.LittleEndian.PutUint64(dst, ver)
	}
	fillValue(dst[vb:], key, ver, n)
	return dst
}

// fillValue writes the keyed byte stream that follows the version.
func fillValue(b []byte, key, ver uint64, n int) {
	s := mix64(key*0x9e3779b97f4a7c15 ^ ver ^ uint64(n)<<56)
	for len(b) >= 8 {
		s = mix64(s + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(b, s)
		b = b[8:]
	}
	if len(b) > 0 {
		s = mix64(s + 0x9e3779b97f4a7c15)
		for i := range b {
			b[i] = byte(s >> (8 * i))
		}
	}
}

// checkValue reports whether v is a value encodeValue produced for key.
// scratch is reused across calls.
func checkValue(key uint64, v []byte, scratch *[]byte) bool {
	n := len(v)
	if n < 3 {
		return false
	}
	var ver uint64
	if versionBytes(n) == 3 {
		ver = uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16
	} else {
		ver = binary.LittleEndian.Uint64(v)
	}
	*scratch = encodeValue(*scratch, key, ver, n)
	return string(*scratch) == string(v)
}

// Map values (delayed-reader) are one word: version in the high half,
// a keyed check of (key, version) in the low half.
func encodeWord(key, ver uint64) uint64 {
	ver &= 1<<32 - 1
	return ver<<32 | mix64(key<<32|ver)&(1<<32-1)
}

func checkWord(key, w uint64) bool { return encodeWord(key, w>>32) == w }
