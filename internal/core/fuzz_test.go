package core

import (
	"bytes"
	"fmt"
	"path"
	"reflect"
	"strings"
	"testing"

	"gfs/internal/disk"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// FuzzPath fuzzes the path normalization every metadata operation runs
// through, plus resolve on a live filesystem: normalization must be
// total (no panics), idempotent, and always yield a rooted path with no
// ".."/"."/empty segments; ".." must never escape the root. Its
// already-clean fast path must agree with path.Clean on every input.
func FuzzPath(f *testing.F) {
	for _, s := range []string{
		"", "/", ".", "..", "a", "/a/b/c", "a//b", "../../x", "/a/../b",
		"./", "a/./b", "/a/b/../../../c", "a/", "//", "/..", "...",
		"a\x00b", `a\b`, strings.Repeat("/x", 64), "/dir/../dir/./f",
		"/a/.", "/a/..", "/.a", "/a..b", "/a/",
	} {
		f.Add(s)
	}
	r := newRig(f, 2, 1, 256*units.KiB)
	r.run(f, func(p *sim.Proc) error { return nil })
	fs := r.fs

	f.Fuzz(func(t *testing.T, p string) {
		c := cleanPath(p)
		if want := path.Clean("/" + p); c != want {
			t.Fatalf("cleanPath(%q) = %q, path.Clean gives %q", p, c, want)
		}
		if !strings.HasPrefix(c, "/") {
			t.Fatalf("cleanPath(%q) = %q: not rooted", p, c)
		}
		if again := cleanPath(c); again != c {
			t.Fatalf("cleanPath not idempotent: %q -> %q -> %q", p, c, again)
		}
		if strings.Contains(c, "//") {
			t.Fatalf("cleanPath(%q) = %q: empty segment", p, c)
		}
		for _, seg := range strings.Split(strings.TrimPrefix(c, "/"), "/") {
			if seg == "." || seg == ".." {
				t.Fatalf("cleanPath(%q) = %q: segment %q survived", p, c, seg)
			}
		}
		// resolve must be total too: an inode or an error, never a panic,
		// and the root always resolves to the root directory.
		ino, err := fs.resolve(p)
		if err == nil && ino == nil {
			t.Fatalf("resolve(%q): nil inode without error", p)
		}
		if c == "/" {
			if err != nil || !ino.Dir {
				t.Fatalf("resolve(%q) (root): ino=%v err=%v", p, ino, err)
			}
		}
	})
}

// FuzzMmpmonParse fuzzes the mmpmon scraper: arbitrary input must parse
// or error, never panic, and a successful parse must account for every
// section header in the input and be deterministic.
func FuzzMmpmonParse(f *testing.F) {
	// The prime seed is a real rendering from a live run, so the fuzzer
	// starts from the grammar it is meant to cover.
	f.Add(renderedSnapshot(f))
	f.Add("=== mmpmon snapshot t=1.000000s ===\n")
	f.Add("mmpmon node c0 fs_io_s OK\ncluster: x\nbytes read: 12\n")
	f.Add("mmpmon fs gpfs0 io_s OK\ncluster: x\nmmpmon nsd nsd0 up read 1 written 2\n")
	f.Add("mmpmon resource store0 cap 8 inuse 0 queued 0 peak 8 acquired 31 peak_util 1.00\n")
	f.Add("mmpmon sim events_fired 10 pending 0\n")
	f.Add("mmpmon node c0 fs_io_s OK\nbytes read: 9999999999999999999999\n")
	f.Add("garbage\n")
	f.Add("mmpmon solver full 86 region_conns 1024 b0 2 b5 84\n")
	f.Add("mmpmon engine events 9 wall_ns 5 sim_ns 7 ev_per_s 1800000000 wall_ms_per_sim_s 0.714 " +
		"allocs_per_ev 0.50 depth_p50 1 depth_p99 3 peak_pending 4\n")
	f.Add("mmpmon engine_kind sim.timer count 9 est_wall_ns 5\n")
	f.Add("mmpmon hist op.read_ns n 10 mean 5 p50 5 p95 9 p99 10 p999 10 max 10\n")
	f.Add("mmpmon rate link.wan.MBps MB/s 1157.70464\n")
	f.Add("mmpmon op_lat read n 4 mean 1.500ms p50 1.200ms p95 2.000ms p99 2.000ms p999 2.000ms " +
		"net_xmit 60.0% disk 40.0%\n")

	f.Fuzz(func(t *testing.T, data string) {
		snap, err := ParseMmpmon(strings.NewReader(data))
		if err != nil {
			return
		}
		if got := len(snap.FSIO); got != countLinesWithPrefix(data, "mmpmon node ") {
			t.Fatalf("parsed %d fs_io_s sections, input has %d headers", got,
				countLinesWithPrefix(data, "mmpmon node "))
		}
		if got := len(snap.IO); got != countLinesWithPrefix(data, "mmpmon fs ") {
			t.Fatalf("parsed %d io_s sections, input has %d headers", got,
				countLinesWithPrefix(data, "mmpmon fs "))
		}
		snap2, err2 := ParseMmpmon(strings.NewReader(data))
		if err2 != nil || !reflect.DeepEqual(snap, snap2) {
			t.Fatalf("parse is not deterministic (err2=%v)", err2)
		}
	})
}

// TestMmpmonParseBoundary pins the outcomes at the edge of the grammar
// that differential fuzzing against the earlier positional parser found.
// A line either fails the parse, or only warns; neither yields a record.
func TestMmpmonParseBoundary(t *testing.T) {
	t.Parallel()
	const opLat = "mmpmon op_lat read n 4 mean 1.500ms p50 1.200ms p95 2.000ms p99 2.000ms p999 2.000ms\n"
	for _, tc := range []struct {
		in   string
		fail bool
	}{
		{"mmpmon resource \f\n", true},
		{"mmpmon hist \t\n", true},
		// 18 words: a resource line has exactly 15.
		{"mmpmon resource r 0 0 0 cap 0 inuse 0 queued 0 peak 0 acquired 0 peak_util 0\n", true},
		// The key words of an exact kind are checked, and their order.
		{"mmpmon resource r a 1 b 2 c 3 d 4 e 5 f 0.5\n", true},
		{"mmpmon fs g io_s OK\nmmpmon nsd n0 up written 2 read 1\n", true},
		{"mmpmon sim events_fired 1 pending 2 pending 3\n", true},
		{"mmpmon resource r cap 1 inuse 0 queued 0 peak 1 acquired 1 peak_util 1.00 extra 2\n", true},
		// Not a known kind: two spaces, or no space after the kind word.
		{"mmpmon  nsd 0\n", false},
		{"mmpmon sim\n", false},
		// An op_lat line ends the io_s section an nsd line needs.
		{"mmpmon fs g io_s OK\n" + opLat + "mmpmon nsd n0 up read 1 written 2\n", true},
		// Advisory lines only warn.
		{"mmpmon op_lat read n x\n", false},
		{"mmpmon rate r MB/s 1 extra 2\n", false},
	} {
		snap, err := ParseMmpmon(strings.NewReader(tc.in))
		switch {
		case tc.fail && err == nil:
			t.Errorf("%q parsed without error", tc.in)
		case !tc.fail && err != nil:
			t.Errorf("%q: %v, want only a warning", tc.in, err)
		case !tc.fail && (len(snap.Warnings) == 0 || len(snap.Records) != 0):
			t.Errorf("%q: warnings %v, records %+v; want a warning and no record",
				tc.in, snap.Warnings, snap.Records)
		}
	}
}

func countLinesWithPrefix(data, prefix string) int {
	n := 0
	for _, line := range strings.Split(data, "\n") {
		if strings.HasPrefix(line, prefix) {
			n++
		}
	}
	return n
}

// renderedSnapshot produces a WriteMmpmon rendering from a real small
// run, used as the fuzz grammar seed and by the round-trip test.
func renderedSnapshot(t testing.TB) string {
	r := newRig(t, 2, 2, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/a.dat", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, pattern(int(units.MiB), 3)); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		g, err := m.Open(p, "/a.dat")
		if err != nil {
			return err
		}
		if _, err := g.ReadBytesAt(p, 0, g.Size()); err != nil {
			return err
		}
		return g.Close(p)
	})
	var buf bytes.Buffer
	WriteMmpmon(&buf, r.s, []*Cluster{r.cl})
	return buf.String()
}

// TestMmpmonRoundTrip checks ParseMmpmon against the live structures
// its input was rendered from: every mount counter, NSD line, and the
// sim footer must come back exactly.
func TestMmpmonRoundTrip(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	var want MountStats
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/rt.dat", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, pattern(int(2*units.MiB), 11)); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		f.Seek(0)
		// Chunked sequential re-read: leaves blocks ahead of each request
		// for the prefetcher, so the prefetch counters come out non-zero.
		for off := units.Bytes(0); off < f.Size(); off += 256 * units.KiB {
			if _, err := f.ReadBytesAt(p, off, 256*units.KiB); err != nil {
				return err
			}
		}
		if err := f.Close(p); err != nil {
			return err
		}
		want = m.Stats()
		return nil
	})

	var buf bytes.Buffer
	WriteMmpmon(&buf, r.s, []*Cluster{r.cl})
	snap, err := ParseMmpmon(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of our own rendering failed: %v", err)
	}
	if len(snap.FSIO) != 1 {
		t.Fatalf("got %d fs_io_s sections, want 1", len(snap.FSIO))
	}
	fsio := snap.FSIO[0]
	if fsio.Node != "sdsc/c0" || fsio.Filesystem != "gpfs0" {
		t.Fatalf("section identity = %q/%q", fsio.Node, fsio.Filesystem)
	}
	// Every mmpmon-tagged MountStats field must come back as its row,
	// and every row must be a tagged field.
	wantV := reflect.ValueOf(want)
	rows := 0
	for i := 0; i < wantV.NumField(); i++ {
		label := wantV.Type().Field(i).Tag.Get("mmpmon")
		if label == "" {
			continue
		}
		rows++
		v := wantV.Field(i)
		var n int64
		if v.CanInt() {
			n = v.Int()
		} else {
			n = int64(v.Uint())
		}
		if got, ok := fsio.Counters[label]; !ok {
			t.Errorf("row %q missing from the rendering", label)
		} else if got != n {
			t.Errorf("row %q = %d, want %d", label, got, n)
		}
	}
	if rows != len(fsio.Counters) {
		t.Errorf("rendered %d counter rows, MountStats tags %d: %v", len(fsio.Counters), rows, fsio.Counters)
	}
	if len(snap.IO) != 1 || len(snap.IO[0].NSDs) != 2 {
		t.Fatalf("io_s sections = %d (nsds %v), want 1 section with 2 nsds",
			len(snap.IO), snap.IO)
	}
	for _, nsd := range snap.IO[0].NSDs {
		if nsd.Args[0] != "up" {
			t.Errorf("nsd %s state %q, want up", nsd.Name, nsd.Args[0])
		}
	}
	if sims := snap.Kind("sim"); len(sims) != 1 || sims[0].Int("events_fired") <= 0 {
		t.Errorf("sim lines = %+v, want one with events_fired > 0", sims)
	}
	if snap.Time <= 0 {
		t.Errorf("snapshot time = %v, want > 0", snap.Time)
	}
	// The prefetch counters must be live in the rendering — this test
	// rides shotgun on the Stats() honesty split.
	if fsio.Counters["prefetch issued"] == 0 || fsio.Counters["cache misses"] == 0 {
		t.Errorf("expected non-zero prefetch issued (%d) and cache misses (%d) after cold re-read",
			fsio.Counters["prefetch issued"], fsio.Counters["cache misses"])
	}
	// Snapshots without a probe carry no engine section.
	if eng, kinds := snap.Kind("engine"), snap.Kind("engine_kind"); len(eng)+len(kinds) != 0 {
		t.Errorf("engine section present without a probe: %+v %+v", eng, kinds)
	}
	_ = fmt.Sprintf("%v", snap) // the types must all be printable
}

// TestMmpmonEngineHistRoundTrip round-trips the engine-telemetry and
// histogram lines: a probed run's snapshot must parse cleanly (no
// warnings), and a hist line written before p999 existed must still
// parse.
func TestMmpmonEngineHistRoundTrip(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	probe := sim.NewEngineProbe()
	r.s.SetEngineProbe(probe)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/e.dat", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, pattern(int(1*units.MiB), 3)); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		return f.Close(p)
	})

	reg := metrics.NewRegistry()
	h := reg.Histogram("op.read_ns")
	for i := 1; i <= 2000; i++ {
		h.Observe(float64(i))
	}
	reg.Histogram("empty.never_observed") // empty: must not render

	var buf bytes.Buffer
	WriteMmpmon(&buf, r.s, []*Cluster{r.cl})
	WriteMmpmonHists(&buf, reg)

	snap, err := ParseMmpmon(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of probed rendering failed: %v", err)
	}
	if len(snap.Warnings) != 0 {
		t.Errorf("own rendering produced warnings: %v", snap.Warnings)
	}
	engines := snap.Kind("engine")
	if len(engines) != 1 {
		t.Fatalf("engine lines = %+v, want one", engines)
	}
	eng := engines[0]
	if eng.Int("events") <= 0 || eng.Int("wall_ns") <= 0 || eng.Int("sim_ns") <= 0 {
		t.Errorf("engine window not populated: %+v", eng)
	}
	kinds := snap.Kind("engine_kind")
	if len(kinds) == 0 {
		t.Fatal("no engine_kind lines parsed")
	}
	var kindSum int64
	seenKinds := map[string]bool{}
	for _, k := range kinds {
		kindSum += k.Int("count")
		seenKinds[k.Name] = true
	}
	if kindSum != eng.Int("events") {
		t.Errorf("kind counts sum %d != engine events %d", kindSum, eng.Int("events"))
	}
	for _, want := range []string{"sim.timer", "net.flow_completion", "net.deliver"} {
		if !seenKinds[want] {
			t.Errorf("expected event kind %q in %v", want, seenKinds)
		}
	}
	hists := snap.Kind("hist")
	if len(hists) != 1 || hists[0].Name != "op.read_ns" {
		t.Fatalf("hists = %+v, want one op.read_ns entry", hists)
	}
	hist := hists[0]
	if _, hasP999 := hist.Fields["p999"]; hist.Int("n") != 2000 || !hasP999 {
		t.Errorf("hist = %+v, want n=2000 with p999", hist)
	}
	if hist.Float("p999") < hist.Float("p99") || hist.Float("max") < hist.Float("p999") {
		t.Errorf("quantile ladder out of order: p99=%v p999=%v max=%v",
			hist.Float("p99"), hist.Float("p999"), hist.Float("max"))
	}

	// Forward compatibility: a pre-p999 hist line still parses.
	old := "mmpmon hist old.lat_ns n 10 mean 5 p50 5 p95 9 p99 10 max 10\n"
	oldSnap, err := ParseMmpmon(strings.NewReader(old))
	if err != nil {
		t.Fatalf("pre-p999 hist line failed to parse: %v", err)
	}
	oldHists := oldSnap.Kind("hist")
	if len(oldHists) != 1 || oldHists[0].Int("n") != 10 {
		t.Fatalf("pre-p999 hist parsed wrong: %+v", oldHists)
	}
	if _, hasP999 := oldHists[0].Fields["p999"]; hasP999 {
		t.Errorf("pre-p999 hist parsed wrong: %+v", oldHists)
	}
}

// emulateGrant drives one acquire through the manager's own grant
// protocol against a bare tokenTable: covered fast path, conflict carve
// (the dead-client / post-ack path, minus the wire), optional widen,
// insert. It mirrors serveTokenOp's table arithmetic exactly so the
// fuzzer exercises the same split/merge/widen/carve code paths the
// manager and every shard run. It reports whether it issued a grant.
func emulateGrant(tab *tokenTable, ino int64, holder string, start, end, dEnd units.Bytes, mode TokenMode, wide bool) bool {
	if dEnd < end {
		dEnd = end
	}
	if tab.holderCovers(ino, holder, start, end, mode) {
		return false
	}
	conf := tab.conflicts(ino, start, dEnd, mode, holder)
	if len(conf) > 0 {
		tab.contended[ino] = true
		for h, sp := range conf {
			s0, e0 := start, dEnd
			if sp[0] > s0 {
				s0 = sp[0]
			}
			if sp[1] < e0 {
				e0 = sp[1]
			}
			tab.carve(ino, h, s0, e0)
		}
	}
	gS, gE := start, dEnd
	if wide && !tab.contended[ino] {
		gS, gE = tab.widen(ino, holder, start, dEnd, mode)
	}
	tab.insert(ino, holder, gS, gE, mode)
	return true
}

// checkTokenInvariants asserts the table's structural invariants: every
// range non-empty, and no two holders ever hold conflicting overlapping
// ranges (an exclusive range overlaps nothing of anyone else).
func checkTokenInvariants(t *testing.T, tab *tokenTable) {
	t.Helper()
	for ino, rs := range tab.byInode {
		if len(rs) == 0 {
			t.Fatalf("ino %d: empty range list left in table", ino)
		}
		for i, a := range rs {
			if a.End <= a.Start {
				t.Fatalf("ino %d: empty/inverted range %+v", ino, a)
			}
			for _, b := range rs[i+1:] {
				if a.Holder == b.Holder {
					continue
				}
				if overlaps(a.Start, a.End, b.Start, b.End) &&
					(a.Mode == TokExclusive || b.Mode == TokExclusive) {
					t.Fatalf("ino %d: conflicting overlap %+v vs %+v", ino, a, b)
				}
			}
		}
	}
}

// FuzzTokenRange fuzzes the byte-range token arithmetic — split, merge,
// widen, carve — through the manager's grant protocol. Invariants, after
// every operation: no conflicting overlap between holders; the granted
// span fully covers the required range; re-granting an identical request
// is idempotent (covered fast path, table byte-identical).
func FuzzTokenRange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 8, 1})
	// Two writers leapfrogging the same inode, then a release.
	f.Add([]byte{
		0, 0, 0, 0, 16, 3,
		0, 0, 1, 8, 16, 3,
		12, 0, 0, 0, 8, 0,
	})
	// Shared readers overlapping an exclusive writer, cross-inode noise,
	// holder eviction and inode teardown.
	f.Add([]byte{
		0, 0, 0, 0, 32, 1,
		0, 0, 1, 16, 32, 0,
		0, 1, 2, 0, 64, 2,
		13, 0, 1, 0, 0, 0,
		14, 1, 0, 0, 0, 0,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newTokenTable()
		const maxOps = 256
		for n := 0; n+6 <= len(data) && n/6 < maxOps; n += 6 {
			op, inoB, holB, startB, lenB, flags := data[n], data[n+1], data[n+2], data[n+3], data[n+4], data[n+5]
			ino := int64(inoB % 3) // few inodes: force per-inode interaction
			holder := string(rune('a' + holB%4))
			start := units.Bytes(startB) // small coordinate space: force overlap
			length := units.Bytes(lenB%64) + 1
			end := start + length
			mode := TokShared
			if flags&1 != 0 {
				mode = TokExclusive
			}
			wide := flags&2 != 0
			dEnd := end
			if flags&4 != 0 {
				dEnd = end + 32 // desired-range widening, as TokenChunk does
			}

			switch op % 16 {
			case 12: // release: carve the holder's own range
				tab.carve(ino, holder, start, end)
			case 13: // unmount / eviction
				tab.dropHolder(holder)
			case 14: // file removed
				tab.dropInode(ino)
			default: // acquire dominates, as it does in real traffic
				emulateGrant(tab, ino, holder, start, end, dEnd, mode, wide)
				if !tab.holderCovers(ino, holder, start, end, mode) {
					t.Fatalf("grant does not cover required [%d,%d) %v for %s on ino %d: %+v",
						start, end, mode, holder, ino, tab.byInode[ino])
				}
				// Idempotent re-grant: the identical request must hit the
				// covered fast path and leave the table untouched.
				before := fmt.Sprintf("%+v", tab.byInode[ino])
				if emulateGrant(tab, ino, holder, start, end, dEnd, mode, wide) {
					t.Fatalf("re-grant of covered [%d,%d) issued a new grant", start, end)
				}
				if after := fmt.Sprintf("%+v", tab.byInode[ino]); after != before {
					t.Fatalf("re-grant mutated the table:\n before %s\n after  %s", before, after)
				}
			}
			checkTokenInvariants(t, tab)
		}
	})
}

// FuzzNSDContent drives the NSD content shadow with writes and reads at
// random (block, off, len) ranges spanning up to four slots, against a
// flat byte model of the store. Each op is four bytes: kind (even
// writes, odd reads), block, offset and length. Every read must return
// the model's bytes, never-written bytes read as zeros, and only slots a
// write touched may hold content.
func FuzzNSDContent(f *testing.F) {
	f.Add([]byte{0, 0, 3, 16, 1, 0, 0, 64})
	f.Add([]byte{2, 1, 15, 49, 1, 2, 0, 16, 3, 0, 15, 2})
	f.Add([]byte{4, 4, 0, 0, 5, 4, 0, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bs, slots, span = 16, 8, 4
		n := &NSD{blockSize: bs, alloc: NewAllocator(slots), content: map[int64][]byte{}}
		for i := 0; i < slots; i++ {
			n.alloc.Alloc() // content lands only in allocated slots
		}
		model := make([]byte, bs*slots)
		touched := map[int64]bool{}
		for i := 0; i+3 < len(ops); i += 4 {
			block := int64(ops[i+1]) % (slots - span + 1)
			off := units.Bytes(ops[i+2]) % bs
			ln := units.Bytes(ops[i+3]) % (span*bs - off + 1)
			at := units.Bytes(block)*bs + off
			if ops[i]%2 == 0 {
				data := make([]byte, ln)
				for j := range data {
					data[j] = ops[i] + byte(j)*31 + 1
				}
				n.writeContent(block, off, data)
				copy(model[at:], data)
				for b := at / bs; b*bs < at+ln; b++ {
					touched[int64(b)] = true
				}
				continue
			}
			if got := n.readContent(block, off, ln); !bytes.Equal(got, model[at:at+ln]) {
				t.Fatalf("op %d: read block %d off %d len %d = %x, want %x", i/4, block, off, ln, got, model[at:at+ln])
			}
		}
		for b, c := range n.content {
			if !touched[b] {
				t.Fatalf("slot %d holds content no write touched", b)
			}
			if !bytes.Equal(c, model[units.Bytes(b)*bs:units.Bytes(b+1)*bs]) {
				t.Fatalf("slot %d = %x, want %x", b, c, model[units.Bytes(b)*bs:units.Bytes(b+1)*bs])
			}
		}
	})
}

// TestNSDRejectsBadGeometry sends the server transfers whose range or
// data does not fit what they name. writeContent runs on across slots,
// so each must be refused before any content is stored.
func TestNSDRejectsBadGeometry(t *testing.T) {
	t.Parallel()
	r := newRig(t, 1, 0, 64*units.KiB)
	n := r.fs.nsds[0]
	bs := n.blockSize
	cases := []ioPayload{
		{Off: bs / 2, Len: bs},                             // past the block end
		{Len: bs, Count: 2},                                // batched length is not count blocks
		{Off: 1, Len: 2 * bs, Count: 2},                    // batched offset inside a block
		{Block: n.Blocks() - 1, Len: 2 * bs, Count: 2},     // past the NSD end
		{Off: bs / 2, Len: bs / 4, Data: make([]byte, bs)}, // data longer than the range
		{Len: 2 * bs, Count: 2, Data: make([]byte, bs)},    // data shorter than the run
	}
	for i, io := range cases {
		io.Cluster, io.FS, io.Op = r.cl.Name, r.fs.Name, disk.Write
		var err error
		answered := false
		n.Primary.serve(&netsim.Request{Payload: &io}, func(resp netsim.Response) {
			answered, err = true, resp.Err
		})
		r.s.Run() // an accepted transfer completes (and stores) here
		if !answered || err == nil {
			t.Errorf("case %d (block %d off %d len %d count %d, %d data bytes) accepted",
				i, io.Block, io.Off, io.Len, io.Count, len(io.Data))
		}
	}
	if len(n.content) != 0 {
		t.Errorf("refused writes stored content in %d slots", len(n.content))
	}
}
