package fcip

import (
	"testing"

	"gfs/internal/disk"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// sc02Rig builds a miniature SC'02: QFS disk + metadata at "sdsc", a
// SANergy client at "baltimore", joined by an FCIP tunnel.
func sc02Rig(t testing.TB, tunnelCfg TunnelConfig, arrays int) (*sim.Sim, *Client, *netsim.Network, *Tunnel) {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	nw.DefaultTCP = netsim.TCPConfig{} // FC flow control: no TCP window
	f := san.NewFabric(s, nw)
	swSDSC := f.Switch("sdsc")
	swShow := f.Switch("baltimore")
	tun := NewTunnel(f, "nishan", swSDSC, swShow, tunnelCfg)

	cfg := san.ArrayConfig{
		Sets: 4, MembersPer: 9, Spares: 1, StripeUnit: 256 * units.KiB,
		Drive: disk.FC73(), CtrlRate: 2 * units.Gbps, CtrlStreams: 4,
	}
	var arrs []*san.Array
	for i := 0; i < arrays; i++ {
		arrs = append(arrs, f.NewArray("qfs", swSDSC, cfg))
	}
	metaNode := nw.NewNode("f15k")
	f.AttachHBA(metaNode, swSDSC, 2*units.Gbps, 1)
	meta := NewFileServer(f, metaNode, arrs)

	hostNode := nw.NewNode("sf6800")
	f.AttachHBA(hostNode, swShow, 2*units.Gbps, 4)
	client := NewClient(f, hostNode, meta, 8)
	return s, client, nw, tun
}

func TestTunnelShape(t *testing.T) {
	t.Parallel()
	_, _, _, tun := sc02Rig(t, DefaultTunnelConfig(), 2)
	if got := len(tun.Links()); got != 16 {
		t.Errorf("tunnel links = %d, want 16 (8 duplex channels)", got)
	}
	if got := len(tun.EastboundLinks()); got != 8 {
		t.Errorf("eastbound = %d, want 8", got)
	}
	for _, l := range tun.EastboundLinks() {
		if l.Delay() != 40*sim.Millisecond {
			t.Errorf("channel delay = %v", l.Delay())
		}
		want := 0.95e9
		if g := float64(l.Capacity()); g < want*0.999 || g > want*1.001 {
			t.Errorf("channel rate = %v, want ~0.95Gb/s after encapsulation", l.Capacity())
		}
	}
}

func TestCreateOpenMissing(t *testing.T) {
	t.Parallel()
	s, c, _, _ := sc02Rig(t, DefaultTunnelConfig(), 1)
	var createErr, dupErr, missErr error
	s.Go("t", func(p *sim.Proc) {
		createErr = c.Create(p, "/enzo.dump", 256*units.MiB)
		dupErr = c.Create(p, "/enzo.dump", units.MiB)
		missErr = c.ReadFile(p, "/nope", units.MiB, 4)
	})
	s.Run()
	if createErr != nil {
		t.Errorf("create: %v", createErr)
	}
	if dupErr == nil {
		t.Error("duplicate create succeeded")
	}
	if missErr == nil {
		t.Error("read of missing file succeeded")
	}
}

func TestWANReadThroughputDespiteRTT(t *testing.T) {
	t.Parallel()
	// The SC'02 claim: >700 MB/s sustained over 80 ms RTT on an 8 Gb/s
	// path. With 8 parallel channels and deep pipelining the simulated
	// client must comfortably beat 500 MB/s.
	s, c, _, _ := sc02Rig(t, DefaultTunnelConfig(), 4)
	size := 4 * units.GB
	var t0, t1 sim.Time
	s.Go("read", func(p *sim.Proc) {
		if err := c.Create(p, "/big", units.Bytes(size)); err != nil {
			t.Error(err)
			return
		}
		t0 = p.Now()
		if err := c.ReadFile(p, "/big", 8*units.MiB, 64); err != nil {
			t.Error(err)
			return
		}
		t1 = p.Now()
	})
	s.Run()
	rate := float64(size) / (t1 - t0).Seconds()
	if rate < 500e6 {
		t.Errorf("WAN read rate %.0f MB/s, want > 500 MB/s", rate/1e6)
	}
	if rate > 1000e6 {
		t.Errorf("WAN read rate %.0f MB/s exceeds the 8 Gb/s path", rate/1e6)
	}
	if c.BytesRead != units.Bytes(size) {
		t.Errorf("BytesRead = %v", c.BytesRead)
	}
}

func TestShallowPipelineIsLatencyBound(t *testing.T) {
	t.Parallel()
	// depth=1 over 80 ms RTT: each 8 MiB block takes >= one RTT, so the
	// rate collapses to ~100 MB/s — why naive access fails on a WAN.
	s, c, _, _ := sc02Rig(t, DefaultTunnelConfig(), 4)
	size := 512 * units.MB
	var t0, t1 sim.Time
	s.Go("read", func(p *sim.Proc) {
		if err := c.Create(p, "/small", units.Bytes(size)); err != nil {
			t.Error(err)
			return
		}
		t0 = p.Now()
		if err := c.ReadFile(p, "/small", 8*units.MiB, 1); err != nil {
			t.Error(err)
			return
		}
		t1 = p.Now()
	})
	s.Run()
	rate := float64(size) / (t1 - t0).Seconds()
	if rate > 120e6 {
		t.Errorf("depth-1 rate %.0f MB/s; expected latency-bound < 120 MB/s", rate/1e6)
	}
}

func TestWriteFile(t *testing.T) {
	t.Parallel()
	s, c, _, _ := sc02Rig(t, DefaultTunnelConfig(), 2)
	var err error
	s.Go("w", func(p *sim.Proc) {
		if err = c.Create(p, "/out", 256*units.MiB); err != nil {
			return
		}
		err = c.WriteFile(p, "/out", 8*units.MiB, 16)
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesWritten != 256*units.MiB {
		t.Errorf("BytesWritten = %v", c.BytesWritten)
	}
}

func TestTunnelMonitorSeesTraffic(t *testing.T) {
	t.Parallel()
	s, c, nw, tun := sc02Rig(t, DefaultTunnelConfig(), 2)
	var mons []*metrics.RateMonitor
	for _, l := range tun.EastboundLinks() {
		mons = append(mons, nw.MonitorLink(l, sim.Second))
	}
	var err error
	s.Go("r", func(p *sim.Proc) {
		if err = c.Create(p, "/f", 128*units.MiB); err != nil {
			return
		}
		err = c.ReadFile(p, "/f", 8*units.MiB, 32)
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total units.Bytes
	used := 0
	for _, m := range mons {
		if m.Total() > 0 {
			used++
		}
		total += m.Total()
	}
	if total < 128*units.MiB {
		t.Errorf("tunnel carried %v, want >= 128MiB", total)
	}
	if used < 2 {
		t.Errorf("only %d of 8 channels carried data; ECMP broken?", used)
	}
}
