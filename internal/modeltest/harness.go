package modeltest

import (
	"fmt"
	"math/rand"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/fault"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Config parameterizes one randomized model-checking run.
type Config struct {
	Seed    int64
	Clients int // concurrent workload clients
	Ops     int // operations per client

	BlockSize  units.Bytes // filesystem block size (default 64 KiB)
	PoolBlocks int         // client page pool, in blocks (default 16 — forces eviction)
	ReadAhead  int         // prefetch depth (default 4)

	// WriteBehind is the dirty-page flush trigger (default 4, backpressure
	// at 8) — small enough that the workload constantly runs the
	// write-behind scheduler.
	WriteBehind int

	// ServerCrashDelay, if > 0, kills NSD server 0 that long after the
	// workload starts and restarts it after ServerCrashOutage. The
	// workload must ride through on retries with zero divergences.
	ServerCrashDelay  sim.Time
	ServerCrashOutage sim.Time

	// Gather turns on flush gathering, batched NSD I/O and the elevator;
	// WideTokens turns on opportunistic wide token grants. Both must be
	// invisible to the byte-level oracle.
	Gather     bool
	WideTokens bool

	// Shards partitions the metadata/token plane over that many shards
	// homed on the NSD servers (0 = the single central manager). Like
	// Gather, sharding is pure performance machinery: the oracle must not
	// be able to tell a sharded run from an unsharded one.
	Shards int

	// MetaHeavy switches the op mix to a metadata storm: mostly
	// create/stat/rename/remove of small files spread over deep
	// directories — the NorduGrid small-file workload, and the traffic
	// pattern sharding exists for.
	MetaHeavy bool

	// Lease overrides the token lease (0 = the filesystem default). The
	// sharded crash tests shorten it so steal-back completes within the
	// scripted outage.
	Lease sim.Time
}

func (c *Config) defaults() {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Ops == 0 {
		c.Ops = 100
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64 * units.KiB
	}
	if c.PoolBlocks == 0 {
		c.PoolBlocks = 16
	}
	if c.ReadAhead == 0 {
		c.ReadAhead = 4
	}
	if c.WriteBehind == 0 {
		c.WriteBehind = 4
	}
}

const (
	maxFilesPerClient = 6
	maxFileBlocks     = 20 // cap file size so runs stay small
	nServers          = 4
)

// rig is the simulated cluster a run executes against.
type rig struct {
	s       *sim.Sim
	fs      *core.FileSystem
	clients []*core.Client // workload clients
	ver     *core.Client   // verifier, mounts last with cold caches
}

func buildRig(cfg *Config) *rig {
	s := sim.New()
	nw := netsim.New(s)
	cluster := core.NewCluster(s, nw, "model", auth.AuthOnly)
	fs := cluster.CreateFS("gpfs-model", cfg.BlockSize)
	sw := nw.NewNode("sw")
	for i := 0; i < nServers; i++ {
		node := nw.NewNode(fmt.Sprintf("nsd%d", i))
		nw.DuplexLink(fmt.Sprintf("nsd%d-eth", i), node, sw, units.Gbps, 50*sim.Microsecond)
		srv := fs.AddServer(fmt.Sprintf("srv%d", i), node, 2)
		store := core.NewRateStore(s, fmt.Sprintf("store%d", i), 400*units.MBps, 10*units.GB, 8)
		fs.AddNSD(fmt.Sprintf("nsd%d", i), store, srv)
	}
	mgrNode := nw.NewNode("mgr")
	nw.DuplexLink("mgr-eth", mgrNode, sw, units.Gbps, 50*sim.Microsecond)
	fs.SetManager(mgrNode, 2)
	if cfg.Gather {
		fs.EnableGather()
	}
	fs.SetTokenShards(cfg.Shards)
	if cfg.Lease > 0 {
		fs.SetTokenLease(cfg.Lease)
	}

	ccfg := core.DefaultClientConfig()
	ccfg.PagePool = units.Bytes(cfg.PoolBlocks) * cfg.BlockSize
	ccfg.ReadAhead = cfg.ReadAhead
	ccfg.WriteBehind = cfg.WriteBehind
	ccfg.TokenChunk = 8 // narrow tokens: more steal traffic between clients
	ccfg.WideTokens = cfg.WideTokens
	// Enough retry budget to ride out the scripted server outage.
	ccfg.Retry = netsim.RetryPolicy{
		MaxAttempts: 40,
		BaseBackoff: 20 * sim.Millisecond,
		MaxBackoff:  200 * sim.Millisecond,
	}
	r := &rig{s: s, fs: fs}
	mk := func(name string) *core.Client {
		node := nw.NewNode("node-" + name)
		nw.DuplexLink("eth-"+name, node, sw, units.Gbps, 50*sim.Microsecond)
		return core.NewClient(cluster, name, node, ccfg, core.Identity{DN: "/O=Model/CN=" + name})
	}
	for i := 0; i < cfg.Clients; i++ {
		r.clients = append(r.clients, mk(fmt.Sprintf("c%d", i)))
	}
	r.ver = mk("verify")
	return r
}

// worker drives one client's share of the workload: a seeded stream of
// operations against its own /cN/ directory, mirrored into the model
// and compared on every read.
type worker struct {
	name  string
	rng   *rand.Rand
	m     *core.Mount
	model *Model
	dir   string
	max   units.Bytes // file size cap in bytes

	// dirs is the worker's directory set (its top dir plus the nested
	// chain under it in MetaHeavy mode); metaHeavy switches step to the
	// metadata-storm op mix.
	dirs      []string
	metaHeavy bool

	next  int // name counter for create/rename
	files []openFile
	div   *[]Divergence
}

type openFile struct {
	path string
	f    *core.File
}

// newWorkerRNG derives a client's private random stream: values drawn
// depend only on (seed, client index), never on how the simulator
// interleaved the clients.
func newWorkerRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(idx)))
}

func (w *worker) fail(op, path string, err error) {
	*w.div = append(*w.div, Divergence{Client: w.name, Op: op, Path: path,
		Detail: fmt.Sprintf("unexpected error: %v", err)})
}

func (w *worker) diverge(op, path, detail string) {
	*w.div = append(*w.div, Divergence{Client: w.name, Op: op, Path: path, Detail: detail})
}

// step performs one random operation; it returns false when the worker
// must stop (an unexpected error poisons everything after it).
func (w *worker) step(p *sim.Proc) bool {
	if w.metaHeavy {
		return w.metaStep(p)
	}
	// Creation pressure when below quota, otherwise weighted choice.
	if len(w.files) == 0 || (len(w.files) < maxFilesPerClient && w.rng.Intn(100) < 15) {
		path := fmt.Sprintf("%s/f%04d", w.dir, w.next)
		w.next++
		f, err := w.m.Create(p, path, core.DefaultPerm)
		if err != nil {
			w.fail("create", path, err)
			return false
		}
		w.model.Create(path)
		w.files = append(w.files, openFile{path: path, f: f})
		return true
	}
	i := w.rng.Intn(len(w.files))
	of := &w.files[i]
	size := w.model.Size(of.path)
	switch c := w.rng.Intn(100); {
	case c < 35: // write at an offset within [0, size], capped file size
		off := w.rng.Int63n(size + 1)
		room := int64(w.max) - off
		if room <= 0 {
			return true // at the cap; treat as a no-op
		}
		ln := 1 + w.rng.Int63n(96*1024)
		if ln > room {
			ln = room
		}
		data := make([]byte, ln)
		w.rng.Read(data)
		if err := of.f.WriteBytesAt(p, units.Bytes(off), data); err != nil {
			w.fail("write", of.path, err)
			return false
		}
		w.model.Write(of.path, off, data)
	case c < 60: // read a random range and compare against the model
		if size == 0 {
			return true
		}
		off := w.rng.Int63n(size)
		ln := 1 + w.rng.Int63n(size-off)
		got, err := of.f.ReadBytesAt(p, units.Bytes(off), units.Bytes(ln))
		if err != nil {
			w.fail("read", of.path, err)
			return false
		}
		if d := diffBytes(got, w.model.Read(of.path, off, ln)); d != "" {
			w.diverge("read", of.path, fmt.Sprintf("[%d,%d): %s", off, off+ln, d))
		}
	case c < 68: // sync: an ack is a durability promise the oracle can hold
		if err := of.f.Sync(p); err != nil {
			w.fail("sync", of.path, err)
			return false
		}
	case c < 75: // truncate (shrink only: extension holes read as stale)
		to := w.rng.Int63n(size + 1)
		if err := of.f.Truncate(p, units.Bytes(to)); err != nil {
			w.fail("truncate", of.path, err)
			return false
		}
		w.model.Truncate(of.path, to)
	case c < 82: // rename within the client's own directory
		newPath := fmt.Sprintf("%s/f%04d", w.dir, w.next)
		w.next++
		if err := w.m.Rename(p, of.path, newPath); err != nil {
			w.fail("rename", of.path, err)
			return false
		}
		w.model.Rename(of.path, newPath)
		of.path = newPath
	case c < 90: // close + reopen: exercises the close barrier
		if err := of.f.Close(p); err != nil {
			w.fail("close", of.path, err)
			return false
		}
		f, err := w.m.Open(p, of.path)
		if err != nil {
			w.fail("reopen", of.path, err)
			return false
		}
		of.f = f
	default: // remove (with whatever dirty pages are outstanding)
		path := of.path
		if err := of.f.Close(p); err != nil {
			w.fail("close", path, err)
			return false
		}
		if err := w.m.Remove(p, path); err != nil {
			w.fail("remove", path, err)
			return false
		}
		w.model.Remove(path)
		w.files[i] = w.files[len(w.files)-1]
		w.files = w.files[:len(w.files)-1]
	}
	return true
}

// metaHeavyMaxFiles caps the live-file set in the storm profile: high
// enough that creates, stats and removes all stay hot.
const metaHeavyMaxFiles = 12

// metaStep is the metadata-storm op mix: small files churned through
// create/stat/rename/remove across the worker's deep directory chain,
// with just enough data traffic to keep the byte oracle honest. The
// shape mirrors the NorduGrid small-file replication pattern the paper
// calls out as GPFS's worst case.
func (w *worker) metaStep(p *sim.Proc) bool {
	if len(w.files) == 0 || (len(w.files) < metaHeavyMaxFiles && w.rng.Intn(100) < 30) {
		dir := w.dirs[w.rng.Intn(len(w.dirs))]
		path := fmt.Sprintf("%s/m%05d", dir, w.next)
		w.next++
		f, err := w.m.Create(p, path, core.DefaultPerm)
		if err != nil {
			w.fail("create", path, err)
			return false
		}
		w.model.Create(path)
		// A small payload: the file exists for its metadata, not its bytes.
		data := make([]byte, 1+w.rng.Int63n(4096))
		w.rng.Read(data)
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			w.fail("write", path, err)
			return false
		}
		w.model.Write(path, 0, data)
		w.files = append(w.files, openFile{path: path, f: f})
		return true
	}
	i := w.rng.Intn(len(w.files))
	of := &w.files[i]
	switch c := w.rng.Intn(100); {
	case c < 25: // stat: the hot path of a metadata storm
		a, err := w.m.Stat(p, of.path)
		if err != nil {
			w.fail("stat", of.path, err)
			return false
		}
		if a.Dir {
			w.diverge("stat", of.path, "file turned into a directory")
		}
	case c < 45: // rename, often across directories (and so across shards)
		dir := w.dirs[w.rng.Intn(len(w.dirs))]
		newPath := fmt.Sprintf("%s/m%05d", dir, w.next)
		w.next++
		if err := w.m.Rename(p, of.path, newPath); err != nil {
			w.fail("rename", of.path, err)
			return false
		}
		w.model.Rename(of.path, newPath)
		of.path = newPath
	case c < 62: // remove: small-file churn
		path := of.path
		if err := of.f.Close(p); err != nil {
			w.fail("close", path, err)
			return false
		}
		if err := w.m.Remove(p, path); err != nil {
			w.fail("remove", path, err)
			return false
		}
		w.model.Remove(path)
		w.files[i] = w.files[len(w.files)-1]
		w.files = w.files[:len(w.files)-1]
	case c < 78: // read back and compare against the model
		size := w.model.Size(of.path)
		if size == 0 {
			return true
		}
		off := w.rng.Int63n(size)
		ln := 1 + w.rng.Int63n(size-off)
		got, err := of.f.ReadBytesAt(p, units.Bytes(off), units.Bytes(ln))
		if err != nil {
			w.fail("read", of.path, err)
			return false
		}
		if d := diffBytes(got, w.model.Read(of.path, off, ln)); d != "" {
			w.diverge("read", of.path, fmt.Sprintf("[%d,%d): %s", off, off+ln, d))
		}
	case c < 90: // small overwrite somewhere in the file
		size := w.model.Size(of.path)
		off := w.rng.Int63n(size + 1)
		data := make([]byte, 1+w.rng.Int63n(4096))
		w.rng.Read(data)
		if err := of.f.WriteBytesAt(p, units.Bytes(off), data); err != nil {
			w.fail("write", of.path, err)
			return false
		}
		w.model.Write(of.path, off, data)
	default: // sync
		if err := of.f.Sync(p); err != nil {
			w.fail("sync", of.path, err)
			return false
		}
	}
	return true
}

// Run executes the randomized workload and returns every divergence
// between the real stack and the reference model (nil means the run is
// clean). Errors building the rig panic — they are harness bugs.
func Run(cfg Config) []Divergence {
	cfg.defaults()
	r := buildRig(&cfg)
	model := NewModel()
	var divs []Divergence

	done := false
	r.s.Go("modeltest", func(p *sim.Proc) {
		defer func() { done = true }()

		workers := make([]*worker, cfg.Clients)
		for i, cl := range r.clients {
			m, err := cl.MountLocal(p, r.fs)
			if err != nil {
				divs = append(divs, Divergence{Client: cl.ID(), Op: "mount", Detail: err.Error()})
				return
			}
			dir := fmt.Sprintf("/c%d", i)
			if err := m.Mkdir(p, dir); err != nil {
				divs = append(divs, Divergence{Client: cl.ID(), Op: "mkdir", Path: dir, Detail: err.Error()})
				return
			}
			dirs := []string{dir}
			if cfg.MetaHeavy {
				// A nested chain under the worker's top dir: deep paths hash
				// independently, so one worker's storm fans out over shards.
				sub := dir
				for d := 0; d < 3; d++ {
					sub = fmt.Sprintf("%s/d%d", sub, d)
					if err := m.Mkdir(p, sub); err != nil {
						divs = append(divs, Divergence{Client: cl.ID(), Op: "mkdir", Path: sub, Detail: err.Error()})
						return
					}
					dirs = append(dirs, sub)
				}
			}
			workers[i] = &worker{
				name: cl.ID(), m: m, model: model, dir: dir,
				dirs: dirs, metaHeavy: cfg.MetaHeavy,
				max: units.Bytes(maxFileBlocks) * cfg.BlockSize,
				rng: newWorkerRNG(cfg.Seed, i),
				div: &divs,
			}
		}

		if cfg.ServerCrashDelay > 0 {
			fault.NewPlan("modeltest-crash").
				ServerCrash(p.Now()+cfg.ServerCrashDelay, cfg.ServerCrashOutage, r.fs.Servers()[0]).
				Install(r.s)
		}

		wg := sim.NewWaitGroup(r.s)
		for _, w := range workers {
			w := w
			wg.Add(1)
			r.s.Go(w.name, func(wp *sim.Proc) {
				defer wg.Done()
				for op := 0; op < cfg.Ops; op++ {
					wp.Sleep(sim.Time(w.rng.Intn(5_000_000))) // ≤5 ms jitter interleaves clients
					if !w.step(wp) {
						return
					}
				}
				for _, of := range w.files {
					if err := of.f.Close(wp); err != nil {
						w.fail("close", of.path, err)
						return
					}
				}
			})
		}
		wg.Wait(p)
		if len(divs) > 0 {
			return // workload already diverged; the verifier would only pile on
		}
		m, err := r.ver.MountLocal(p, r.fs)
		if err != nil {
			divs = append(divs, Divergence{Client: "verify", Op: "mount", Detail: err.Error()})
			return
		}
		verify(p, m, model, &divs)
	})
	r.s.Run()
	if !done {
		panic("modeltest: simulation deadlocked")
	}
	return divs
}

// verify re-reads every file through the given mount — cold caches, and
// every read steals the writer's tokens back — and compares contents and
// directory listings against the model.
func verify(p *sim.Proc, m *core.Mount, model *Model, divs *[]Divergence) {
	byDir := map[string]map[string]bool{}
	for _, path := range model.Paths() {
		var dir, base string
		for i := len(path) - 1; i >= 0; i-- {
			if path[i] == '/' {
				dir, base = path[:i], path[i+1:]
				break
			}
		}
		if byDir[dir] == nil {
			byDir[dir] = map[string]bool{}
		}
		byDir[dir][base] = true

		f, err := m.Open(p, path)
		if err != nil {
			*divs = append(*divs, Divergence{Client: "verify", Op: "open", Path: path, Detail: err.Error()})
			continue
		}
		want := model.Size(path)
		if got := int64(f.Size()); got != want {
			*divs = append(*divs, Divergence{Client: "verify", Op: "stat", Path: path,
				Detail: fmt.Sprintf("size %d, want %d", got, want)})
		} else if want > 0 {
			got, err := f.ReadBytesAt(p, 0, units.Bytes(want))
			if err != nil {
				*divs = append(*divs, Divergence{Client: "verify", Op: "read", Path: path, Detail: err.Error()})
			} else if d := diffBytes(got, model.Read(path, 0, want)); d != "" {
				*divs = append(*divs, Divergence{Client: "verify", Op: "read", Path: path, Detail: d})
			}
		}
		if err := f.Close(p); err != nil {
			*divs = append(*divs, Divergence{Client: "verify", Op: "close", Path: path, Detail: err.Error()})
		}
	}
	// Directory listings must agree with the model's namespace too —
	// renames and removes that only half-applied show up here.
	for dir, want := range byDir {
		ents, err := m.List(p, dir)
		if err != nil {
			*divs = append(*divs, Divergence{Client: "verify", Op: "list", Path: dir, Detail: err.Error()})
			continue
		}
		got := map[string]bool{}
		for _, a := range ents {
			if a.Dir {
				// The model tracks files only; subdirectories (the
				// MetaHeavy nesting) are scaffolding, not oracle state.
				continue
			}
			got[a.Name] = true
		}
		for name := range want {
			if !got[name] {
				*divs = append(*divs, Divergence{Client: "verify", Op: "list", Path: dir,
					Detail: "missing entry " + name})
			}
		}
		for name := range got {
			if !want[name] {
				*divs = append(*divs, Divergence{Client: "verify", Op: "list", Path: dir,
					Detail: "phantom entry " + name})
			}
		}
	}
}
