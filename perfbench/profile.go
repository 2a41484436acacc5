package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// wallLayers are the layers a CPU profile sample can be charged to, in
// report order.
var wallLayers = []string{
	"sim", "netsim", "core.pagepool", "core.token", "core.nsd", "core.client",
	"san", "raid", "disk", "auth", "trace", "other", "driver", "runtime",
}

// coreFiles maps internal/core source files to the layer that owns
// them; functions on *pagePool are charged to core.pagepool wherever
// they live.
var coreFiles = map[string]string{
	"file.go":   "core.pagepool",
	"arena.go":  "core.pagepool",
	"token.go":  "core.token",
	"shard.go":  "core.token",
	"fs.go":     "core.token", // namespace and metadata service
	"layout.go": "core.token", // block allocation
	"nsd.go":    "core.nsd",
}

const gfsPrefix = "gfs/internal/"

// layerOf names the layer a function belongs to, or "" for code outside
// the simulator (runtime, standard library).
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "driver"
	}
	if !strings.HasPrefix(fn, gfsPrefix) {
		return ""
	}
	rest := fn[len(gfsPrefix):]
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "core":
		if strings.Contains(rest, "(*pagePool)") || strings.Contains(rest, "newPagePool") {
			return "core.pagepool"
		}
		if l, ok := coreFiles[path.Base(file)]; ok {
			return l
		}
		return "core.client"
	case "critpath", "trace":
		return "trace"
	case "sim", "netsim", "san", "raid", "disk", "auth":
		return pkg
	}
	return "other"
}

// wallSplitPct decodes gzipped pprof CPU profiles and returns the share
// of CPU time charged to each layer. A sample is charged to its
// innermost simulator frame, so allocation and channel hand-off costs
// land on the layer that caused them; samples with none go to runtime.
func wallSplitPct(profiles [][]byte) (map[string]float64, error) {
	byLayer := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			layer := "runtime"
		frames:
			for _, id := range s.locs {
				for _, fid := range p.locLines[id] {
					f := p.funcs[fid]
					if l := layerOf(f.name, f.file); l != "" {
						layer = l
						break frames
					}
				}
			}
			byLayer[layer] += s.value
			total += s.value
		}
	}
	out := map[string]float64{}
	for _, l := range wallLayers {
		out[l] = 100 * ratio(float64(byLayer[l]), float64(total))
	}
	return out, nil
}

// A minimal reader for the profile.proto fields a CPU profile split
// needs: samples (location ids, values), locations (inlined function
// ids, innermost first), functions (name, file) and the string table.
type pbFunc struct{ name, file string }

type pbSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pbProfile struct {
	samples  []pbSample
	locLines map[uint64][]uint64 // location id -> function ids
	funcs    map[uint64]pbFunc
}

type pbField struct {
	num    int
	wire   int
	varint uint64
	data   []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locLines: map[uint64][]uint64{}, funcs: map[uint64]pbFunc{}}
	var strs []string
	type rawFunc struct{ id, name, file uint64 }
	var rawFuncs []rawFunc
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s pbSample
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.value = int64(vs[len(vs)-1])
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4: // line
					lines, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fids = append(fids, l.varint)
						}
					}
				}
			}
			p.locLines[id] = fids
		case 5: // function
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var rf rawFunc
			for _, ff := range sub {
				switch ff.num {
				case 1:
					rf.id = ff.varint
				case 2:
					rf.name = ff.varint
				case 4:
					rf.file = ff.varint
				}
			}
			rawFuncs = append(rawFuncs, rf)
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, rf := range rawFuncs {
		p.funcs[rf.id] = pbFunc{name: str(rf.name), file: str(rf.file)}
	}
	return p, nil
}
