package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is the central sink for latency instrumentation: named
// log-scale histograms, created on first use. Counters are not kept
// here; each component declares its own as typed fields. Like the rest
// of the simulation it is single-threaded and needs no locking;
// rendering is sorted by name so output is deterministic.
type Registry struct {
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramNames returns the names of every histogram in the registry,
// sorted — for exporters that render histograms in a stable order.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Render returns the registry contents as aligned text, one histogram
// per line, sorted by name.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, n := range r.HistogramNames() {
		fmt.Fprintf(&b, "hist    %-32s %s\n", n, r.hists[n].String())
	}
	return b.String()
}
