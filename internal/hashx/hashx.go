// Package hashx holds the two seedless, table-free hash functions every
// deterministic draw in the tree is built from. Generated universes,
// ring ownership, member coverage draws, fault schedules and soft-404
// probe paths are all functions of these values, so changing either
// function changes every saved universe and every pinned number;
// hashx_test.go pins what each call site relied on.
package hashx

// Golden is the splitmix64 increment (2^64 / φ). Call sites that derive
// a sequence of draws from one seed step the seed by multiples of it.
const Golden uint64 = 0x9e3779b97f4a7c15

// FNV1a is the 64-bit FNV-1a hash of s (hash/fnv's New64a, without the
// hash.Hash allocation or the []byte conversion).
func FNV1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is one splitmix64 step: z advanced by Golden, then finalized.
// Mix64(z - Golden) is the bare finalizer.
func Mix64(z uint64) uint64 {
	z += Golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
