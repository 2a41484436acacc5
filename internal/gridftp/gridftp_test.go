package gridftp

import (
	"testing"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// rateStore is a simple fixed-rate store for tests.
type rateStore struct {
	sim  *sim.Sim
	rate units.BytesPerSec
	cap  units.Bytes
}

func (r rateStore) IO(p *sim.Proc, op disk.Op, off, size units.Bytes) error {
	p.Sleep(sim.FromSeconds(float64(size) / float64(r.rate)))
	return nil
}
func (r rateStore) Capacity() units.Bytes { return r.cap }

func wanPair(t testing.TB, streams int, window units.Bytes) (*sim.Sim, *Client, *Server) {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	nw.DefaultTCP = netsim.TCPConfig{MaxWindow: window, InitWindow: 64 * units.KiB}
	a := nw.NewNode("sdsc")
	b := nw.NewNode("ncsa")
	nw.DuplexLink("teragrid", a, b, 10*units.Gbps, 30*sim.Millisecond)
	srv := NewServer(s, nw, a, rateStore{s, 4 * units.GBps, 100 * units.TB}, streams)
	cl := NewClient(s, nw, b, streams)
	return s, cl, srv
}

func TestFetchWholeFile(t *testing.T) {
	t.Parallel()
	s, cl, srv := wanPair(t, 4, 8*units.MiB)
	srv.Put("/nvo/slice.fits", 2*units.GB)
	var got units.Bytes
	var err error
	s.Go("t", func(p *sim.Proc) { got, err = cl.Fetch(p, srv, "/nvo/slice.fits") })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*units.GB {
		t.Errorf("size = %v", got)
	}
	if cl.BytesFetched != 2*units.GB {
		t.Errorf("BytesFetched = %v", cl.BytesFetched)
	}
	sent, _ := srv.BytesServed()
	if sent != 2*units.GB {
		t.Errorf("server sent %v", sent)
	}
}

func TestFetchMissingFileFails(t *testing.T) {
	t.Parallel()
	s, cl, srv := wanPair(t, 4, 8*units.MiB)
	var err error
	s.Go("t", func(p *sim.Proc) { _, err = cl.Fetch(p, srv, "/nope") })
	s.Run()
	if err == nil {
		t.Fatal("fetch of missing file succeeded")
	}
}

func TestPushRegistersFile(t *testing.T) {
	t.Parallel()
	s, cl, srv := wanPair(t, 4, 8*units.MiB)
	var err error
	s.Go("t", func(p *sim.Proc) { err = cl.Push(p, srv, "/out.dat", 512*units.MB) })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sz, ok := srv.Has("/out.dat"); !ok || sz != 512*units.MB {
		t.Errorf("Has = %v, %v", sz, ok)
	}
	_, recv := srv.BytesServed()
	if recv != 512*units.MB {
		t.Errorf("server received %v", recv)
	}
}

func TestParallelStreamsBeatSingleStream(t *testing.T) {
	t.Parallel()
	// The GridFTP design point: with a per-conn window of 2 MiB over a
	// 60 ms RTT, one stream caps near 33 MB/s; 8 streams approach 8x.
	run := func(streams int) sim.Time {
		s, cl, srv := wanPair(t, streams, 2*units.MiB)
		srv.Put("/big", 2*units.GB)
		s.Go("t", func(p *sim.Proc) {
			if _, err := cl.Fetch(p, srv, "/big"); err != nil {
				t.Error(err)
			}
		})
		s.Run()
		return s.Now()
	}
	one := run(1)
	eight := run(8)
	if float64(eight) > float64(one)*0.25 {
		t.Errorf("8 streams %v vs 1 stream %v; want >= 4x speedup", eight, one)
	}
}

func TestWholesaleVsPartialAccessRatio(t *testing.T) {
	t.Parallel()
	// E7's core arithmetic: fetching a 100 GB file to read 1 GB of it
	// wastes ~99% of the bytes moved. Verify the byte accounting that the
	// paradigm-comparison bench builds on.
	s, cl, srv := wanPair(t, 8, 16*units.MiB)
	srv.Put("/dataset", 20*units.GB)
	var err error
	s.Go("t", func(p *sim.Proc) { _, err = cl.Fetch(p, srv, "/dataset") })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cl.BytesFetched != 20*units.GB {
		t.Fatalf("wholesale fetch moved %v", cl.BytesFetched)
	}
	// Wall-clock sanity: 20 GB over 10 Gb/s is >= 16 s.
	if s.Now() < 16*sim.Second {
		t.Errorf("transfer finished in %v, faster than the wire", s.Now())
	}
}
