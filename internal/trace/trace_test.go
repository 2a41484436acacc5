package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTracerIsSafe: every method must be a no-op on a nil tracer —
// that is the whole disabled-path contract.
func TestNilTracerIsSafe(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	tr.SpanCtx(Ctx{}, 0, "rpc", "call", "a->b", 0, 10, I("bytes", 4))
	tr.InstantCtx(Ctx{}, "cache", "hit", "c0", 5)
	tr.Reset()
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Len() != 0 || tr.Events() != nil || tr.CountByCat("rpc") != 0 {
		t.Fatal("nil tracer not empty")
	}
	if tr.Summary() != "" {
		t.Fatalf("nil tracer summary %q", tr.Summary())
	}
}

func TestRecordAndCount(t *testing.T) {
	t.Parallel()
	tr := New()
	tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", 1000, 3000, I("bytes", 64))
	tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", 2000, 5000)
	tr.InstantCtx(Ctx{}, "token", "grant", "fs0", 2500, S("holder", "c0"))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if got := tr.CountByCat("rpc"); got != 2 {
		t.Fatalf("CountByCat(rpc) = %d, want 2", got)
	}
	ev := tr.Events()[0]
	if ev.Kind != Span || ev.TS != 1000 || ev.Dur != 2000 {
		t.Fatalf("bad span event %+v", ev)
	}
	if want := "rpc=2 token=1"; tr.Summary() != want {
		t.Fatalf("Summary = %q, want %q", tr.Summary(), want)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// chromeEvent is the shape Perfetto/chrome://tracing expects.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

func TestWriteChromeShape(t *testing.T) {
	t.Parallel()
	tr := New()
	// Two categories, two tracks in the first — exercises the pid/tid
	// metadata assignment.
	tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", 1_500, 4_500, I("bytes", 1024), S("err", "boom"))
	tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "b->a", 2_000, 2_750)
	tr.InstantCtx(Ctx{}, "token", "grant", "fs0", 3_000, S("holder", "c0"))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}

	var metas, spans, instants []chromeEvent
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas = append(metas, e)
		case "X":
			spans = append(spans, e)
		case "i":
			instants = append(instants, e)
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	// 2 categories -> 2 process_name metas; 3 (cat, track) pairs ->
	// 3 thread_name metas.
	if len(metas) != 5 {
		t.Fatalf("got %d metadata events, want 5", len(metas))
	}
	procNames := map[string]bool{}
	for _, m := range metas {
		if m.Name == "process_name" {
			procNames[m.Args["name"].(string)] = true
		}
	}
	if !procNames["rpc"] || !procNames["token"] {
		t.Fatalf("process names %v missing rpc/token", procNames)
	}

	if len(spans) != 2 || len(instants) != 1 {
		t.Fatalf("got %d spans, %d instants", len(spans), len(instants))
	}
	sp := spans[0]
	if sp.Name != "nsd.io" || sp.Cat != "rpc" {
		t.Fatalf("bad span identity %+v", sp)
	}
	// ts/dur are microseconds: 1500 ns -> 1.5 us, 3000 ns -> 3 us.
	if sp.TS != 1.5 || sp.Dur != 3.0 {
		t.Fatalf("span ts=%v dur=%v, want 1.5/3.0", sp.TS, sp.Dur)
	}
	if sp.Args["bytes"].(float64) != 1024 || sp.Args["err"].(string) != "boom" {
		t.Fatalf("span args %v", sp.Args)
	}
	// Same track -> same tid; different track -> different tid.
	if spans[0].Tid == spans[1].Tid {
		t.Fatal("distinct tracks share a tid")
	}
	if spans[0].Pid != spans[1].Pid {
		t.Fatal("same category got different pids")
	}
	in := instants[0]
	if in.S != "t" || in.Cat != "token" || in.TS != 3.0 {
		t.Fatalf("bad instant %+v", in)
	}
	if in.Pid == spans[0].Pid {
		t.Fatal("distinct categories share a pid")
	}
}

func TestWriteJSONL(t *testing.T) {
	t.Parallel()
	tr := New()
	tr.SpanCtx(Ctx{}, 0, "flow", "xfer", "a->b", 0, 100, I("bytes", 7))
	tr.InstantCtx(Ctx{}, "cache", "miss", "c0", 50)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev struct {
		Kind string         `json:"kind"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "span" || ev.Dur != 100 || ev.Cat != "flow" || ev.Args["bytes"].(float64) != 7 {
		t.Fatalf("bad JSONL span %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "instant" || ev.TS != 50 {
		t.Fatalf("bad JSONL instant %+v", ev)
	}
}

// TestChromeDeterminism: the exporter itself must be byte-stable for a
// given event sequence (map iteration must not leak into the output).
func TestChromeDeterminism(t *testing.T) {
	t.Parallel()
	build := func() *Tracer {
		tr := New()
		for i := int64(0); i < 50; i++ {
			tr.SpanCtx(Ctx{}, 0, "rpc", "call", "a->b", i*10, i*10+5, I("i", i))
			tr.InstantCtx(Ctx{}, "token", "grant", "fs", i*10+1)
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteChrome output differs across identical tracers")
	}
}
