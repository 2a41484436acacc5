package disk

import (
	"math"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func TestServiceTimeRandomVsSequential(t *testing.T) {
	t.Parallel()
	s := sim.New()
	d := New(s, "d0", SATA250())
	p := d.Params()
	random := d.ServiceTime(Read, 100*units.MB, units.MiB)
	want := p.CommandOverhead + p.SeekAvg + p.RotationalHalf +
		sim.FromSeconds(float64(units.MiB)/float64(p.TransferRate))
	if random != want {
		t.Errorf("random service = %v, want %v", random, want)
	}
	// After an access ending at X, an access at X skips seek+rotation.
	d.lastEnd = 100 * units.MB
	seq := d.ServiceTime(Read, 100*units.MB, units.MiB)
	if seq != want-p.SeekAvg-p.RotationalHalf {
		t.Errorf("sequential service = %v, want %v", seq, want-p.SeekAvg-p.RotationalHalf)
	}
}

func TestAccessAccounting(t *testing.T) {
	t.Parallel()
	s := sim.New()
	d := New(s, "d0", SATA250())
	s.Go("io", func(p *sim.Proc) {
		d.Access(p, Read, 0, units.MiB)
		d.Access(p, Write, units.MiB, units.MiB) // sequential with previous end
	})
	s.Run()
	if d.Ops() != 2 {
		t.Errorf("ops = %d", d.Ops())
	}
	if d.BytesRead() != units.MiB || d.BytesWritten() != units.MiB {
		t.Errorf("bytes = %v read / %v written", d.BytesRead(), d.BytesWritten())
	}
	if d.BusyTime() != sim.Time(s.Now()) {
		t.Errorf("busy %v != elapsed %v for a saturated disk", d.BusyTime(), s.Now())
	}
	if u := d.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestQueueSerializes(t *testing.T) {
	t.Parallel()
	s := sim.New()
	d := New(s, "d0", SATA250())
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		s.Go("io", func(p *sim.Proc) {
			d.Access(p, Read, 0, units.MiB)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	if len(finish) != 3 {
		t.Fatalf("finished %d", len(finish))
	}
	// All random reads of the same size: later ones queue behind.
	if !(finish[0] < finish[1] && finish[1] < finish[2]) {
		t.Errorf("finish times not serialized: %v", finish)
	}
}

func TestSequentialStreamRate(t *testing.T) {
	t.Parallel()
	// A long sequential stream should approach the media rate.
	s := sim.New()
	d := New(s, "d0", SATA250())
	total := 600 * units.MB
	s.Go("stream", func(p *sim.Proc) {
		for off := units.Bytes(0); off < total; off += units.MiB {
			d.Access(p, Read, off, units.MiB)
		}
	})
	s.Run()
	rate := float64(total) / s.Now().Seconds()
	media := float64(SATA250().TransferRate)
	if rate < media*0.85 || rate > media {
		t.Errorf("sequential rate = %v, want near %v", rate, media)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	t.Parallel()
	s := sim.New()
	d := New(s, "d0", SATA250())
	panicked := false
	s.Go("io", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.Access(p, Read, d.Params().Capacity-10, 20)
	})
	s.Run()
	if !panicked {
		t.Fatal("out-of-range access did not panic")
	}
}

// Property: service time is monotone in size and never less than pure
// media transfer time.
func TestPropertyServiceTimeMonotone(t *testing.T) {
	t.Parallel()
	f := func(szRaw uint32, offRaw uint32) bool {
		s := sim.New()
		d := New(s, "d", SATA250())
		sz := units.Bytes(szRaw%uint32(16*units.MiB)) + 1
		off := units.Bytes(offRaw) % (d.Params().Capacity - 32*units.MiB)
		t1 := d.ServiceTime(Read, off, sz)
		t2 := d.ServiceTime(Read, off, sz+units.MiB)
		media := sim.FromSeconds(float64(sz) / float64(d.Params().TransferRate))
		return t2 > t1 && t1 >= media
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
