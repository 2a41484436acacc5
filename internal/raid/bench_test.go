package raid

import (
	"math/rand"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func BenchmarkXORParity(b *testing.B) {
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = make([]byte, 256*units.KiB)
		for j := range blocks[i] {
			blocks[i][j] = byte(i * j)
		}
	}
	b.SetBytes(8 * 256 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = XORParity(blocks)
	}
}

func BenchmarkUpdateParity(b *testing.B) {
	n := int(256 * units.KiB)
	oldP := make([]byte, n)
	oldD := make([]byte, n)
	newD := make([]byte, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = UpdateParity(oldP, oldD, newD)
	}
}

// BenchmarkRAIDWrite runs 16 concurrent writers on one 8+P set, each
// issuing 384 KiB partial-stripe writes (read-modify-write on two or
// three members plus parity) at random 128 KiB-aligned offsets. One op
// is one logical Write, member commands and events included.
func BenchmarkRAIDWrite(b *testing.B) {
	s := sim.New()
	r := newSet(s, 9)
	rng := rand.New(rand.NewSource(1))
	const size = 384 * units.KiB
	slots := int64((r.Capacity() - size) / (128 * units.KiB))
	left := b.N
	for w := 0; w < 16; w++ {
		s.Go("writer", func(p *sim.Proc) {
			for left > 0 {
				left--
				r.Write(p, units.Bytes(rng.Int63n(slots))*128*units.KiB, size)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
