package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// sanBurstDigest is the SHA-256 of TestSANBurstWithoutProcesses's
// completion log, recorded when every nsd.io and san.io request still
// ran in a process of its own.
const sanBurstDigest = "1090a89bd9953f4e28780fb5d3b04161f40b9ef5eff7e767d737dadebc1e01ee"

// TestSANBurstWithoutProcesses fires 64 concurrent nsd.io reads and
// writes from event context at two servers in front of one DS4100 array
// and checks that the servers and the array serve them all without
// starting a process, and that every request completes at the instant
// it did when each one ran in a process of its own.
func TestSANBurstWithoutProcesses(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := netsim.New(s)
	cluster := NewCluster(s, nw, "sdsc", auth.AuthOnly)
	fs := cluster.CreateFS("gpfs0", units.MiB)
	eth := nw.NewNode("eth")
	fab := san.NewFabric(s, nw)
	fcsw := fab.Switch("san")
	var servers []*NSDServer
	for i := 0; i < 2; i++ {
		node := nw.NewNode(fmt.Sprintf("nsd%d", i))
		nw.DuplexLink(fmt.Sprintf("nsd%d-eth", i), node, eth, units.Gbps, 50*sim.Microsecond)
		fab.AttachHBA(node, fcsw, san.FC2, 2)
		servers = append(servers, fs.AddServer(fmt.Sprintf("srv%d", i), node, 2))
	}
	arr := fab.NewArray("ds0", fcsw, san.DS4100Config())
	for l := range arr.Sets {
		srv := servers[l%len(servers)]
		fs.AddNSD(fmt.Sprintf("a0l%d", l), SANStore{Array: arr, LUN: l, Initiator: srv.EP}, srv)
	}
	node := nw.NewNode("client")
	nw.DuplexLink("client-eth", node, eth, 10*units.Gbps, 50*sim.Microsecond)
	ep := nw.NewEndpoint(node, 4)

	probe := sim.NewEngineProbe()
	s.SetEngineProbe(probe)
	const burst = 64
	log := make([]string, burst)
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < burst; i++ {
			// Offsets and lengths vary so writes pay RAID5
			// read-modify-write and completions interleave.
			io := &ioPayload{
				Cluster: cluster.Name, FS: fs.Name, NSD: i % len(fs.nsds),
				Block: int64(i), Off: units.Bytes(i%4) * 64 * units.KiB,
				Len: 256*units.KiB + units.Bytes(i)*4*units.KiB, Op: disk.Read,
			}
			reqSize := units.Bytes(64)
			if i%2 == 1 {
				io.Op, reqSize = disk.Write, io.Len
			}
			ep.GoCtx(trace.Ctx{}, fs.nsds[io.NSD].Primary.EP, fs.svc(nsdService), reqSize, io, func(r netsim.Response) {
				log[i] = fmt.Sprintf("%d %d %d %v", i, s.Now(), r.Size, r.Err)
			})
		}
	})
	s.Run()

	h := sha256.New()
	for i, l := range log {
		if l == "" {
			t.Fatalf("request %d never completed", i)
		}
		fmt.Fprintln(h, l)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sanBurstDigest {
		t.Errorf("completion log digest %s, want %s", got, sanBurstDigest)
	}
	kinds := map[string]uint64{}
	for _, k := range probe.Snapshot().Kinds {
		kinds[k.Name] = k.Count
	}
	if n := kinds["sim.proc_start"]; n != 0 {
		t.Errorf("servers started %d processes, want 0", n)
	}
	if kinds["nsd.serve"] != burst || kinds["san.serve"] != burst {
		t.Errorf("service-start events: nsd.serve %d, san.serve %d; want %d each",
			kinds["nsd.serve"], kinds["san.serve"], burst)
	}
}
