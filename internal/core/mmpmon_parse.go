package core

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// MmpmonSnapshot is the parsed form of a WriteMmpmon rendering — the
// consumer side of the mmpmon text protocol, for tools that scrape
// snapshots out of logs instead of holding the live simulator.
// ParseMmpmon(WriteMmpmon(x)) recovers every counter.
type MmpmonSnapshot struct {
	Time float64 // snapshot virtual time, seconds
	FSIO []MmpmonFSIO
	IO   []MmpmonIO
	// Records holds the "mmpmon <kind>" lines of every kind in
	// mmpmonGrammar, in input order, except nsd lines, which belong to
	// their io_s section.
	Records []MmpmonRecord
	// Warnings records lines the parser skipped because it did not
	// recognize them — output from a newer writer. Forward compatibility:
	// an old scraper keeps every counter it knows instead of failing on
	// the first counter it doesn't.
	Warnings []string
}

// MmpmonRows holds the "key: value" rows both section kinds share.
type MmpmonRows struct {
	Cluster    string
	Filesystem string // an io_s section names it in its header
	Disks      int64
	Timestamp  float64
	// Counters holds the numeric rows (bytes read, cache misses, prefetch
	// hits, ...) keyed by their exact rendered name, so the parser keeps
	// working as counters are added.
	Counters map[string]int64
}

// MmpmonFSIO is one per-client-mount fs_io_s section.
type MmpmonFSIO struct {
	Node string
	MmpmonRows
}

// MmpmonIO is one per-filesystem io_s section (server-side aggregate).
type MmpmonIO struct {
	MmpmonRows
	NSDs []MmpmonRecord // the section's "mmpmon nsd" lines
}

// MmpmonRecord is one "mmpmon <kind> [name] [arg…] (key value)*" line.
// Values keep the text the writer printed; Int and Float convert them.
// The parser has already checked every key the kind's grammar declares.
type MmpmonRecord struct {
	Kind   string
	Name   string            // "" for kinds without a name (sim, engine, solver)
	Args   []string          // positional words after the name, e.g. an nsd's state
	Fields map[string]string // the key/value pairs
}

// Int returns key's value as an integer, or 0 if it is absent or not an
// integer. A key names a key/value pair or a positional word.
func (r MmpmonRecord) Int(key string) int64 {
	n, _ := strconv.ParseInt(r.get(key), 10, 64)
	return n
}

// Float returns key's value as a float in the unit the kind's grammar
// declares (milliseconds for op_lat), or 0 if it is absent or malformed.
func (r MmpmonRecord) Float(key string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSuffix(r.get(key), mmpmonGrammar[r.Kind].unit), 64)
	return f
}

// get returns key's text: a positional word the grammar names, else a pair.
func (r MmpmonRecord) get(key string) string {
	if i := slices.Index(mmpmonGrammar[r.Kind].args, key); i >= 0 && i < len(r.Args) {
		return r.Args[i]
	}
	return r.Fields[key]
}

// Kind returns the snapshot's records of one kind, in input order.
func (s *MmpmonSnapshot) Kind(kind string) []MmpmonRecord {
	return slices.DeleteFunc(slices.Clone(s.Records), func(r MmpmonRecord) bool { return r.Kind != kind })
}

// mmpmonLine is the grammar of one "mmpmon <kind>" line: an optional
// name, a fixed number of positional words, then key/value pairs.
type mmpmonLine struct {
	named  bool
	args   []string // names of the positional words
	ints   []string // required integer keys
	floats []string // required float keys
	opt    []string // optional float keys
	unit   string   // suffix a float value may carry
	exact  bool     // the pairs are the non-positional ints then floats, in order
	warn   bool     // a malformed line is a warning, not an error
	inIO   bool     // the line belongs to the open io_s section
	closes bool     // the line ends the open section
}

// mmpmonGrammar declares every "mmpmon <kind>" line the parser reads.
// The kinds first read by position are exact. engine, solver (whose b<i>
// keys are frontier-size buckets) and hist take extra keys from newer
// writers. rate and op_lat lines are advisory telemetry: dropping one is
// recoverable where dropping an fs_io_s counter is not, so a malformed
// one only warns. An op_lat line ends the open section, as it did for
// parsers that predate the kind.
var mmpmonGrammar = map[string]mmpmonLine{
	"nsd":         {named: true, args: []string{"state"}, ints: []string{"read", "written"}, exact: true, inIO: true},
	"resource":    {named: true, ints: []string{"cap", "inuse", "queued", "peak", "acquired"}, floats: []string{"peak_util"}, exact: true},
	"sim":         {ints: []string{"events_fired", "pending"}, exact: true},
	"engine":      {ints: []string{"events", "wall_ns", "sim_ns", "depth_p50", "depth_p99", "peak_pending"}, floats: []string{"ev_per_s", "wall_ms_per_sim_s", "allocs_per_ev"}},
	"engine_kind": {named: true, ints: []string{"count", "est_wall_ns"}, exact: true},
	"solver":      {ints: []string{"full", "region_conns"}},
	"hist":        {named: true, ints: []string{"n"}, floats: []string{"mean", "p50", "p95", "p99", "max"}, opt: []string{"p999"}},
	"rate":        {named: true, args: []string{"unit", "value"}, floats: []string{"value"}, exact: true, warn: true},
	"op_lat":      {named: true, ints: []string{"n"}, floats: []string{"mean", "p50", "p95", "p99", "p999"}, unit: "ms", warn: true, closes: true},
}

// parse reads one line, split into words, against the grammar.
func (g mmpmonLine) parse(words []string) (MmpmonRecord, error) {
	rec, rest := MmpmonRecord{Kind: words[1]}, words[2:]
	bad := fmt.Errorf("bad %s line", rec.Kind)
	if g.named {
		if len(rest) == 0 {
			return rec, bad
		}
		rec.Name, rest = rest[0], rest[1:]
	}
	n := len(g.args)
	if len(rest) < n || (len(rest)-n)%2 != 0 {
		return rec, bad
	}
	rec.Args, rest = rest[:n:n], rest[n:]
	rec.Fields = make(map[string]string, len(rest)/2)
	var keys []string
	for i := 0; i < len(rest); i += 2 {
		rec.Fields[rest[i]] = rest[i+1]
		keys = append(keys, rest[i])
	}
	positional := func(k string) bool { return slices.Contains(g.args, k) }
	if g.exact && !slices.Equal(keys, slices.DeleteFunc(slices.Concat(g.ints, g.floats), positional)) {
		return rec, bad
	}
	for _, k := range slices.Concat(g.ints, g.floats, g.opt) {
		v := rec.get(k)
		var err error
		switch {
		case v == "" && slices.Contains(g.opt, k):
			continue
		case v == "":
			return rec, fmt.Errorf("missing %s", k)
		case slices.Contains(g.ints, k):
			_, err = strconv.ParseInt(v, 10, 64)
		default:
			_, err = strconv.ParseFloat(strings.TrimSuffix(v, g.unit), 64)
		}
		if err != nil {
			return rec, fmt.Errorf("bad %s", k)
		}
	}
	return rec, nil
}

// ParseMmpmon parses a WriteMmpmon rendering. It is strict about the
// structures it knows — a malformed header, section row or mmpmon line
// is an error, because a scrape that silently drops counters is worse
// than one that fails loudly. Lines it does not recognize at all (a
// newer writer's sections or counters) are skipped with a note in
// MmpmonSnapshot.Warnings, so an old scraper survives new output.
func ParseMmpmon(r io.Reader) (*MmpmonSnapshot, error) {
	snap := &MmpmonSnapshot{}
	var cur *MmpmonRows // the open section's rows
	var curIO *MmpmonIO // the open section, if it is an io_s one
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(why string) (*MmpmonSnapshot, error) {
			return nil, fmt.Errorf("core: mmpmon parse: line %d: %s: %q", lineNo, why, line)
		}
		warn := func(why string) {
			snap.Warnings = append(snap.Warnings, fmt.Sprintf("line %d: %s: %q", lineNo, why, line))
		}
		kind, _, spaced := strings.Cut(strings.TrimPrefix(line, "mmpmon "), " ")
		g, known := mmpmonGrammar[kind]
		switch {
		case strings.HasPrefix(line, "=== mmpmon snapshot t="):
			t, err := strconv.ParseFloat(strings.TrimSuffix(line[len("=== mmpmon snapshot t="):], "s ==="), 64)
			if err != nil {
				return fail("bad header time")
			}
			snap.Time = t
		case strings.HasPrefix(line, "mmpmon node "), strings.HasPrefix(line, "mmpmon fs "):
			words := strings.Fields(line)
			section := map[string]string{"node": "fs_io_s", "fs": "io_s"}[kind]
			if len(words) != 5 || words[3] != section || words[4] != "OK" {
				return fail("bad " + section + " header")
			}
			if kind == "node" {
				snap.FSIO = append(snap.FSIO, MmpmonFSIO{Node: words[2], MmpmonRows: MmpmonRows{Counters: map[string]int64{}}})
				cur, curIO = &snap.FSIO[len(snap.FSIO)-1].MmpmonRows, nil
			} else {
				snap.IO = append(snap.IO, MmpmonIO{MmpmonRows: MmpmonRows{Filesystem: words[2], Counters: map[string]int64{}}})
				curIO = &snap.IO[len(snap.IO)-1]
				cur = &curIO.MmpmonRows
			}
		case strings.HasPrefix(line, "mmpmon ") && (!spaced || !known):
			// An mmpmon section this parser predates. Skip it whole —
			// treating its body as counters would pollute a section.
			warn("unrecognized mmpmon section")
			cur, curIO = nil, nil
		case strings.HasPrefix(line, "mmpmon "):
			if g.closes {
				cur, curIO = nil, nil
			}
			if g.inIO && curIO == nil {
				return fail(kind + " line outside io_s section")
			}
			rec, err := g.parse(strings.Fields(line))
			switch {
			case err != nil && g.warn:
				warn(err.Error())
			case err != nil:
				return fail(err.Error())
			case g.inIO:
				curIO.NSDs = append(curIO.NSDs, rec)
			default:
				snap.Records = append(snap.Records, rec)
			}
		default:
			// A "key: value" row: the few string and float keys go to
			// dedicated fields, everything else is an integer counter.
			key, val, ok := strings.Cut(line, ": ")
			var err error
			switch {
			case !ok:
				warn("unrecognized line")
			case cur == nil:
				warn("key/value line outside any section")
			case key == "filesystem" && curIO != nil && val != "":
				return fail("filesystem key inside io_s section") // named in the header
			case key == "filesystem" && curIO == nil:
				cur.Filesystem = val
			case key == "cluster":
				cur.Cluster = val
			case key == "disks":
				cur.Disks, err = strconv.ParseInt(val, 10, 64)
			case key == "timestamp":
				cur.Timestamp, err = strconv.ParseFloat(val, 64)
			case key != "filesystem":
				// A non-integer counter is a newer writer's row: a warning,
				// so the remaining counters still land.
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					cur.Counters[key] = v
				} else {
					warn(fmt.Sprintf("skipping non-integer counter %q", key))
				}
			}
			if err != nil {
				return fail("bad " + key)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: mmpmon parse: %w", err)
	}
	return snap, nil
}
