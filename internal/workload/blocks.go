package workload

import "tlbprefetch/internal/xrand"

// The three block-grained streams of the cache-level extension (ext-cache):
// the paper's §4 calls DP "a fairly generic mechanism, that can possibly be
// used in the context of caches". Each is written in 64-byte cache blocks,
// so a simulator run at PageShift 6 sees block distances where the TLB
// sees page distances. ByName resolves them, so sweep cells can name them,
// but All, Suite and Names do not list them: they are not applications of
// the paper's evaluation, and the 56-workload grids must not grow.

// blockBytes is the cache block the streams step in.
const blockBytes = 64

var blockStreams = []Workload{
	{
		// Fresh sequential blocks, 4 touches each.
		Name: "cache-seq", Suite: "cache", Seed: 0xC101,
		Build: func() []Phase {
			next := uint64(1 << 30)
			return []Phase{PhaseFunc(func(emit EmitFunc, _ *xrand.Rand) bool {
				for i := 0; i < 4096; i++ {
					for j := 0; j < 4; j++ {
						if !emit(0x900000, next+uint64(j*8)) {
							return false
						}
					}
					next += blockBytes
				}
				return true
			})}
		},
	},
	{
		// A fixed block-offset motif applied to fresh block groups: the
		// TLB-level class (d) behaviour, one level down.
		Name: "cache-motif", Suite: "cache", Seed: 0xC102,
		Build: func() []Phase {
			motif := []int64{0, 2, 5, 1, 4}
			next := uint64(1 << 30)
			return []Phase{PhaseFunc(func(emit EmitFunc, _ *xrand.Rand) bool {
				for g := 0; g < 512; g++ {
					for _, d := range motif {
						if !emit(0x910000, next+uint64(d*blockBytes)) {
							return false
						}
					}
					next += 6 * blockBytes
				}
				return true
			})}
		},
	},
	{
		// A fixed shuffled visit order over 2048 blocks, repeated.
		Name: "cache-chase", Suite: "cache", Seed: 0xC103,
		Build: func() []Phase {
			var order []uint32
			return []Phase{PhaseFunc(func(emit EmitFunc, r *xrand.Rand) bool {
				if order == nil {
					for _, v := range r.Perm(2048) {
						order = append(order, uint32(v))
					}
				}
				for _, idx := range order {
					if !emit(0x920000, 1<<30+uint64(idx)*blockBytes) {
						return false
					}
				}
				return true
			})}
		},
	},
}

// BlockStreams returns the cache-level extension's block-grained streams,
// in ext-cache row order.
func BlockStreams() []Workload { return append([]Workload(nil), blockStreams...) }
