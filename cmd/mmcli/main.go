// Command mmcli walks through the GPFS 2.3-style multi-cluster
// administration workflow the paper describes in §6 — mmauth genkey, the
// out-of-band key exchange, mmauth add/grant on the exporting cluster,
// mmremotecluster/mmremotefs on the importing cluster, and the mount —
// against a live simulated two-site deployment, printing each command and
// its effect. Run with -deny or -tamper to watch the security checks bite.
package main

import (
	"flag"
	"fmt"
	"os"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

func main() {
	var (
		deny   = flag.Bool("deny", false, "skip the mmauth grant and watch the mount fail")
		tamper = flag.Bool("tamper", false, "exchange a wrong public key and watch authentication fail")
		cipher = flag.String("cipherlist", "AUTHONLY", "AUTHONLY or AES128")
	)
	flag.Parse()

	mode := auth.AuthOnly
	if *cipher == "AES128" {
		mode = auth.AES128
	} else if *cipher != "AUTHONLY" {
		fmt.Fprintln(os.Stderr, "mmcli: -cipherlist must be AUTHONLY or AES128")
		os.Exit(2)
	}

	s := sim.New()
	nw := netsim.New(s)

	step := func(cmd, effect string, args ...any) {
		fmt.Printf("# %s\n  -> %s\n", cmd, fmt.Sprintf(effect, args...))
	}

	// Exporting cluster: sdsc.teragrid with the production-style FS.
	sdsc := experiments.Env{}.NewSite(s, nw, "sdsc.teragrid")
	step("mmcrcluster -C sdsc.teragrid ...", "cluster %s created; RSA keypair generated (mmauth genkey new)", sdsc.Cluster.Name)
	sdsc.BuildFS(experiments.FSOptions{
		Name: "gpfs-wan", BlockSize: units.MiB,
		Servers: 8, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: 10 * units.TB, StoreStreams: 4,
	})
	step("mmcrnsd; mmcrfs /dev/gpfs-wan -n 8", "filesystem gpfs-wan: %d NSDs, %v usable",
		sdsc.FS.NSDs(), sdsc.FS.Capacity())

	// Importing cluster: ncsa.teragrid across a 10 Gb/s, 2x15 ms WAN.
	ncsa := experiments.Env{}.NewSite(s, nw, "ncsa.teragrid")
	nw.DuplexLink("teragrid", sdsc.Switch, ncsa.Switch, 10*units.Gbps, 15*sim.Millisecond)
	step("mmcrcluster -C ncsa.teragrid ...", "cluster %s created", ncsa.Cluster.Name)

	// Out-of-band key exchange ("such as e-mail").
	sdscKey := sdsc.Cluster.PublicPEM()
	ncsaKey := ncsa.Cluster.PublicPEM()
	if *tamper {
		evil := core.NewCluster(s, nw, "ncsa.teragrid", mode)
		ncsaKey = evil.PublicPEM()
		step("(mail) exchange id_rsa.pub files", "TAMPERED: a wrong key was mailed for ncsa")
	} else {
		step("(mail) exchange id_rsa.pub files", "administrators exchanged %d- and %d-byte PEM files",
			len(sdscKey), len(ncsaKey))
	}

	must := func(err error) {
		if err != nil {
			fmt.Printf("  !! %v\n", err)
			os.Exit(1)
		}
	}
	must(sdsc.Cluster.AuthAdd("ncsa.teragrid", ncsaKey))
	step("mmauth add ncsa.teragrid -k ncsa.pub", "sdsc now trusts the key presented for ncsa")

	if *deny {
		step("mmauth grant ...", "SKIPPED (-deny): ncsa holds no grant on gpfs-wan")
	} else {
		must(sdsc.Cluster.AuthGrant("gpfs-wan", "ncsa.teragrid", auth.ReadWrite))
		step("mmauth grant ncsa.teragrid -f gpfs-wan -a rw", "grant recorded: %v",
			sdsc.Cluster.Registry.AccessFor("gpfs-wan", "ncsa.teragrid"))
	}

	must(ncsa.Cluster.RemoteClusterAdd("sdsc.teragrid", sdsc.Cluster.Contact(), sdscKey))
	step("mmremotecluster add sdsc.teragrid -n contact01 -k sdsc.pub", "contact nodes and key recorded at ncsa")
	must(ncsa.Cluster.RemoteFSAdd("gpfs_sdsc", "sdsc.teragrid", "gpfs-wan"))
	step("mmremotefs add gpfs_sdsc -f gpfs-wan -C sdsc.teragrid -T /gpfs_sdsc", "device gpfs_sdsc defined")

	client := ncsa.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	var mountErr error
	var verified bool
	s.Go("admin", func(p *sim.Proc) {
		m, err := client.MountRemote(p, "gpfs_sdsc")
		if err != nil {
			mountErr = err
			return
		}
		f, err := m.Create(p, "/hello-from-ncsa", core.DefaultPerm)
		if err != nil {
			mountErr = err
			return
		}
		if err := f.WriteBytesAt(p, 0, []byte("written across the TeraGrid")); err != nil {
			mountErr = err
			return
		}
		if err := f.Close(p); err != nil {
			mountErr = err
			return
		}
		got, err := f.ReadBytesAt(p, 0, f.Size())
		mountErr = err
		verified = string(got) == "written across the TeraGrid"
	})
	s.Run()

	if mountErr != nil {
		step("mount /gpfs_sdsc", "FAILED as expected: %v", mountErr)
		if *deny || *tamper {
			fmt.Println("security check held.")
			return
		}
		os.Exit(1)
	}
	step("mount /gpfs_sdsc", "mounted after RSA handshake (%d virtual ms); authenticated=%v",
		int(s.Now().Millis()), sdsc.Cluster.Authenticated("ncsa.teragrid"))
	step("echo ... > /gpfs_sdsc/hello-from-ncsa", "write + read-back across the WAN verified=%v", verified)
	if *deny || *tamper {
		fmt.Println("ERROR: expected the mount to fail")
		os.Exit(1)
	}
}
