package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MmpmonSnapshot is the parsed form of a WriteMmpmon rendering — the
// consumer side of the mmpmon text protocol, for tools that scrape
// snapshots out of logs instead of holding the live simulator.
// ParseMmpmon(WriteMmpmon(x)) recovers every counter.
type MmpmonSnapshot struct {
	Time                 float64 // snapshot virtual time, seconds
	FSIO                 []MmpmonFSIO
	IO                   []MmpmonIO
	Resources            []MmpmonResource
	EventsFired, Pending int64
	// Engine holds the engine-telemetry line (nil when the snapshot was
	// taken without an EngineProbe attached — every pre-probe snapshot).
	Engine      *MmpmonEngine
	EngineKinds []MmpmonEngineKind
	Hists       []MmpmonHist
	// Rates holds the per-interval timeline lines (WriteMmpmonRates) —
	// windowed rates between snapshots, absent from pre-timeline writers.
	Rates []MmpmonRate
	// Solvers holds the per-network rate-solver lines (WriteMmpmonSolver),
	// absent from pre-solver writers.
	Solvers []MmpmonSolver
	// Warnings records lines the parser skipped because it did not
	// recognize them — output from a newer writer. Forward compatibility:
	// an old scraper keeps every counter it knows instead of failing on
	// the first counter it doesn't.
	Warnings []string
}

// MmpmonFSIO is one per-client-mount fs_io_s section.
type MmpmonFSIO struct {
	Node       string
	Cluster    string
	Filesystem string
	Disks      int64
	Timestamp  float64
	// Counters holds the numeric "key: value" rows (bytes read, cache
	// misses, prefetch hits, ...) keyed by their exact rendered name, so
	// the parser keeps working as counters are added.
	Counters map[string]int64
}

// MmpmonIO is one per-filesystem io_s section (server-side aggregate).
type MmpmonIO struct {
	Filesystem string
	Cluster    string
	Disks      int64
	Timestamp  float64
	Counters   map[string]int64
	NSDs       []MmpmonNSD
}

// MmpmonNSD is one "mmpmon nsd" server line inside an io_s section.
type MmpmonNSD struct {
	Name          string
	State         string // up | down
	Read, Written int64
}

// MmpmonResource is one "mmpmon resource" utilization line.
type MmpmonResource struct {
	Name                               string
	Cap, InUse, Queued, Peak, Acquired int64
	PeakUtil                           float64
}

// MmpmonEngine is the parsed "mmpmon engine" telemetry line: how fast
// the simulator itself ran over the probed window.
type MmpmonEngine struct {
	Events, WallNs, SimNs           int64
	EvPerSec                        float64
	WallMsPerSimSec                 float64
	AllocsPerEv                     float64
	DepthP50, DepthP99, PeakPending int64
}

// MmpmonEngineKind is one "mmpmon engine_kind" per-event-kind line.
type MmpmonEngineKind struct {
	Name             string
	Count, EstWallNs int64
}

// MmpmonHist is one "mmpmon hist" histogram line. P999 was added after
// the first hist-emitting writer shipped; HasP999 distinguishes "old
// snapshot without the field" from "p999 is zero".
type MmpmonHist struct {
	Name                           string
	N                              int64
	Mean, P50, P95, P99, P999, Max float64
	HasP999                        bool
}

// MmpmonRate is one "mmpmon rate" per-interval timeline line.
type MmpmonRate struct {
	Name  string
	Unit  string
	Value float64
}

// MmpmonSolver is one "mmpmon solver" line: a network's solve count,
// the conns those solves re-rated, and the frontier-size histogram (log2
// bucket index -> solve count; empty buckets are absent).
type MmpmonSolver struct {
	Full, RegionConns int64
	FrontierHist      map[int]int64
}

// ParseMmpmon parses a WriteMmpmon rendering. It is strict about the
// structures it knows — a malformed header, nsd, resource or sim line is
// an error, because a scrape that silently drops counters is worse than
// one that fails loudly. Lines it does not recognize at all (a newer
// writer's sections or counters) are skipped with a note in
// MmpmonSnapshot.Warnings, so an old scraper survives new output.
func ParseMmpmon(r io.Reader) (*MmpmonSnapshot, error) {
	snap := &MmpmonSnapshot{}
	var curFS *MmpmonFSIO
	var curIO *MmpmonIO
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
			snap.Warnings = append(snap.Warnings,
				fmt.Sprintf("line %d: %s: %q", lineNo, why, line))
		}
		switch {
		case strings.HasPrefix(line, "=== mmpmon snapshot t="):
			rest := strings.TrimPrefix(line, "=== mmpmon snapshot t=")
			rest = strings.TrimSuffix(rest, "s ===")
			t, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return fail("bad header time")
			}
			snap.Time = t
		case strings.HasPrefix(line, "mmpmon node "):
			fields := strings.Fields(line)
			if len(fields) != 5 || fields[3] != "fs_io_s" || fields[4] != "OK" {
				return fail("bad fs_io_s header")
			}
			snap.FSIO = append(snap.FSIO, MmpmonFSIO{Node: fields[2], Counters: map[string]int64{}})
			curFS, curIO = &snap.FSIO[len(snap.FSIO)-1], nil
		case strings.HasPrefix(line, "mmpmon fs "):
			fields := strings.Fields(line)
			if len(fields) != 5 || fields[3] != "io_s" || fields[4] != "OK" {
				return fail("bad io_s header")
			}
			snap.IO = append(snap.IO, MmpmonIO{Filesystem: fields[2], Counters: map[string]int64{}})
			curIO, curFS = &snap.IO[len(snap.IO)-1], nil
		case strings.HasPrefix(line, "mmpmon nsd "):
			if curIO == nil {
				return fail("nsd line outside io_s section")
			}
			fields := strings.Fields(line)
			if len(fields) != 8 || fields[4] != "read" || fields[6] != "written" {
				return fail("bad nsd line")
			}
			rd, err1 := strconv.ParseInt(fields[5], 10, 64)
			wr, err2 := strconv.ParseInt(fields[7], 10, 64)
			if err1 != nil || err2 != nil {
				return fail("bad nsd counters")
			}
			curIO.NSDs = append(curIO.NSDs, MmpmonNSD{
				Name: fields[2], State: fields[3], Read: rd, Written: wr})
		case strings.HasPrefix(line, "mmpmon resource "):
			fields := strings.Fields(line)
			if len(fields) != 15 {
				return fail("bad resource line")
			}
			res := MmpmonResource{Name: fields[2]}
			for i, dst := range map[int]*int64{
				4: &res.Cap, 6: &res.InUse, 8: &res.Queued, 10: &res.Peak, 12: &res.Acquired,
			} {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				if err != nil {
					return fail("bad resource counter " + fields[i-1])
				}
				*dst = v
			}
			util, err := strconv.ParseFloat(fields[14], 64)
			if err != nil {
				return fail("bad peak_util")
			}
			res.PeakUtil = util
			snap.Resources = append(snap.Resources, res)
		case strings.HasPrefix(line, "mmpmon sim "):
			fields := strings.Fields(line)
			if len(fields) != 6 || fields[2] != "events_fired" || fields[4] != "pending" {
				return fail("bad sim line")
			}
			ev, err1 := strconv.ParseInt(fields[3], 10, 64)
			pd, err2 := strconv.ParseInt(fields[5], 10, 64)
			if err1 != nil || err2 != nil {
				return fail("bad sim counters")
			}
			snap.EventsFired, snap.Pending = ev, pd
		case strings.HasPrefix(line, "mmpmon engine_kind "):
			fields := strings.Fields(line)
			if len(fields) != 7 || fields[3] != "count" || fields[5] != "est_wall_ns" {
				return fail("bad engine_kind line")
			}
			cnt, err1 := strconv.ParseInt(fields[4], 10, 64)
			wall, err2 := strconv.ParseInt(fields[6], 10, 64)
			if err1 != nil || err2 != nil {
				return fail("bad engine_kind counters")
			}
			snap.EngineKinds = append(snap.EngineKinds, MmpmonEngineKind{
				Name: fields[2], Count: cnt, EstWallNs: wall})
		case strings.HasPrefix(line, "mmpmon engine "):
			kv, ok := kvPairs(strings.Fields(line), 2)
			if !ok {
				return fail("bad engine line")
			}
			eng := &MmpmonEngine{}
			err := firstErr(
				kvInt(kv, "events", &eng.Events),
				kvInt(kv, "wall_ns", &eng.WallNs),
				kvInt(kv, "sim_ns", &eng.SimNs),
				kvFloat(kv, "ev_per_s", &eng.EvPerSec),
				kvFloat(kv, "wall_ms_per_sim_s", &eng.WallMsPerSimSec),
				kvFloat(kv, "allocs_per_ev", &eng.AllocsPerEv),
				kvInt(kv, "depth_p50", &eng.DepthP50),
				kvInt(kv, "depth_p99", &eng.DepthP99),
				kvInt(kv, "peak_pending", &eng.PeakPending),
			)
			if err != nil {
				return fail(err.Error())
			}
			snap.Engine = eng
		case strings.HasPrefix(line, "mmpmon solver "):
			kv, ok := kvPairs(strings.Fields(line), 2)
			if !ok {
				return fail("bad solver line")
			}
			sv := MmpmonSolver{}
			err := firstErr(
				kvInt(kv, "full", &sv.Full),
				kvInt(kv, "region_conns", &sv.RegionConns),
			)
			if err != nil {
				return fail(err.Error())
			}
			// b<idx> pairs are the frontier histogram. Keys of older
			// writers (local, placements, ..., boundary_links) are
			// ignored; "boundary_links" fails the Atoi and is skipped.
			for k, v := range kv {
				if len(k) < 2 || k[0] != 'b' {
					continue
				}
				idx, err1 := strconv.Atoi(k[1:])
				n, err2 := strconv.ParseInt(v, 10, 64)
				if err1 != nil || err2 != nil {
					continue
				}
				if sv.FrontierHist == nil {
					sv.FrontierHist = map[int]int64{}
				}
				sv.FrontierHist[idx] = n
			}
			snap.Solvers = append(snap.Solvers, sv)
		case strings.HasPrefix(line, "mmpmon rate "):
			// Warn-don't-fail: rate lines are advisory telemetry, and a
			// future writer may extend the format. Dropping one window's
			// rate is recoverable in a way dropping an fs_io_s counter
			// is not.
			fields := strings.Fields(line)
			if len(fields) != 5 {
				warn("bad rate line")
				continue
			}
			v, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				warn("bad rate value")
				continue
			}
			snap.Rates = append(snap.Rates, MmpmonRate{
				Name: fields[2], Unit: fields[3], Value: v})
		case strings.HasPrefix(line, "mmpmon hist "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				return fail("bad hist line")
			}
			kv, ok := kvPairs(fields, 3)
			if !ok {
				return fail("bad hist line")
			}
			h := MmpmonHist{Name: fields[2]}
			err := firstErr(
				kvInt(kv, "n", &h.N),
				kvFloat(kv, "mean", &h.Mean),
				kvFloat(kv, "p50", &h.P50),
				kvFloat(kv, "p95", &h.P95),
				kvFloat(kv, "p99", &h.P99),
				kvFloat(kv, "max", &h.Max),
			)
			if err != nil {
				return fail(err.Error())
			}
			// p999 is newer than the first hist writer: optional, so old
			// snapshots still parse.
			if _, has := kv["p999"]; has {
				if err := kvFloat(kv, "p999", &h.P999); err != nil {
					return fail(err.Error())
				}
				h.HasP999 = true
			}
			snap.Hists = append(snap.Hists, h)
		case strings.HasPrefix(line, "mmpmon "):
			// An mmpmon section this parser predates. Skip it whole —
			// treating its body as counters would pollute a section.
			warn("unrecognized mmpmon section")
			curFS, curIO = nil, nil
		default:
			key, val, ok := strings.Cut(line, ": ")
			if !ok {
				warn("unrecognized line")
				continue
			}
			switch {
			case curFS != nil:
				w, err := applyKV(key, val, &curFS.Cluster, &curFS.Filesystem,
					&curFS.Disks, &curFS.Timestamp, curFS.Counters)
				if err != nil {
					return fail(err.Error())
				}
				if w != "" {
					warn(w)
				}
			case curIO != nil:
				var fsName string // io_s sections name the fs in the header
				w, err := applyKV(key, val, &curIO.Cluster, &fsName,
					&curIO.Disks, &curIO.Timestamp, curIO.Counters)
				if err != nil {
					return fail(err.Error())
				}
				if w != "" {
					warn(w)
				}
				if fsName != "" {
					return fail("filesystem key inside io_s section")
				}
			default:
				warn("key/value line outside any section")
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: mmpmon parse: %w", err)
	}
	return snap, nil
}

// kvPairs parses alternating "key value" tokens starting at from.
func kvPairs(fields []string, from int) (map[string]string, bool) {
	if len(fields) < from || (len(fields)-from)%2 != 0 {
		return nil, false
	}
	m := make(map[string]string, (len(fields)-from)/2)
	for i := from; i < len(fields); i += 2 {
		m[fields[i]] = fields[i+1]
	}
	return m, true
}

// kvInt extracts a required integer field from a kvPairs map.
func kvInt(kv map[string]string, key string, dst *int64) error {
	s, ok := kv[key]
	if !ok {
		return fmt.Errorf("missing %s", key)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s", key)
	}
	*dst = v
	return nil
}

// kvFloat extracts a required float field from a kvPairs map.
func kvFloat(kv map[string]string, key string, dst *float64) error {
	s, ok := kv[key]
	if !ok {
		return fmt.Errorf("missing %s", key)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad %s", key)
	}
	*dst = v
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// applyKV routes one "key: value" row into a section: the few string and
// float keys go to dedicated fields; everything else is an integer
// counter. A counter row with a non-integer value is a row from a newer
// writer whose format this parser predates — returned as a warning, not
// an error, so the remaining counters still land. Malformed known keys
// (disks, timestamp) stay hard errors.
func applyKV(key, val string, cluster, fsName *string, disks *int64, ts *float64, counters map[string]int64) (warning string, err error) {
	switch key {
	case "cluster":
		*cluster = val
		return "", nil
	case "filesystem":
		*fsName = val
		return "", nil
	case "disks":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return "", fmt.Errorf("bad disks value")
		}
		*disks = v
		return "", nil
	case "timestamp":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", fmt.Errorf("bad timestamp")
		}
		*ts = v
		return "", nil
	default:
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Sprintf("skipping non-integer counter %q", key), nil
		}
		counters[key] = v
		return "", nil
	}
}
