package raid

import (
	"math/rand"
	"testing"

	"gfs/internal/disk"
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

// BenchmarkRAIDWrite keeps 16 concurrent writes in flight on one 8+P
// set, each a 384 KiB partial-stripe write (read-modify-write on two or
// three members plus parity) at a random 128 KiB-aligned offset; each
// write's completion issues the next. One op is one logical write,
// member commands and events included.
func BenchmarkRAIDWrite(b *testing.B) {
	s := sim.New()
	r := newSet(s, 9)
	rng := rand.New(rand.NewSource(1))
	const size = 384 * units.KiB
	slots := int64((r.Capacity() - size) / (128 * units.KiB))
	left := b.N
	var next func()
	next = func() {
		if left > 0 {
			left--
			r.IO(disk.Write, units.Bytes(rng.Int63n(slots))*128*units.KiB, size, next)
		}
	}
	for w := 0; w < 16; w++ {
		s.Post(sim.KindOther, 0, next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
