package trace

import (
	"bytes"
	"strings"
	"testing"
)

// emitOps records nOps operations of three events each (root span, child
// span, instant) onto t, plus one unattributed instant per op.
func emitOps(t *Tracer, nOps int) {
	for i := 0; i < nOps; i++ {
		op := t.NewOpID()
		sid := t.NewSpanID()
		base := int64(i) * 1000
		t.SpanCtx(Ctx{Op: op}, sid, "op", "read", "client0", base, base+900, I("bytes", 4096))
		t.SpanCtx(Ctx{Op: op, Parent: sid}, 0, "rpc", "nsd_read", "c->s", base+10, base+800)
		t.InstantCtx(Ctx{Op: op, Parent: sid}, "cache", "miss", "client0", base+5)
		t.InstantCtx(Ctx{}, "engine", "sample", "engine", base, I("fired", int64(i)))
	}
}

func TestSampleDeterministicSubset(t *testing.T) {
	t.Parallel()
	full := New()
	emitOps(full, 100)
	var fullOut bytes.Buffer
	if err := full.WriteJSONL(&fullOut); err != nil {
		t.Fatal(err)
	}

	sampled := New()
	sampled.Configure(Config{SampleOneIn: 4})
	emitOps(sampled, 100)
	var out1 bytes.Buffer
	if err := sampled.WriteJSONL(&out1); err != nil {
		t.Fatal(err)
	}

	again := New()
	again.Configure(Config{SampleOneIn: 4})
	emitOps(again, 100)
	var out2 bytes.Buffer
	if err := again.WriteJSONL(&out2); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("two identically sampled runs differ")
	}
	if out1.Len() >= fullOut.Len() {
		t.Fatalf("sampled output (%d bytes) not smaller than full (%d)", out1.Len(), fullOut.Len())
	}

	// Every sampled line must appear in the full export: a strict subset.
	fullLines := map[string]bool{}
	for _, l := range strings.Split(fullOut.String(), "\n") {
		fullLines[l] = true
	}
	for _, l := range strings.Split(out1.String(), "\n") {
		if l != "" && !fullLines[l] {
			t.Fatalf("sampled line not in full export: %s", l)
		}
	}

	// Sampled ops keep complete trees: every kept op has all 3 events.
	perOp := map[int64]int{}
	for i := range sampled.Events() {
		if op := sampled.Events()[i].Op; op != 0 {
			perOp[op]++
		}
	}
	if len(perOp) == 0 || len(perOp) >= 100 {
		t.Fatalf("sampling kept %d of 100 ops", len(perOp))
	}
	for op, n := range perOp {
		if n != 3 {
			t.Errorf("op %d has %d events, want complete tree of 3", op, n)
		}
	}

	// Unattributed events (engine samples) are always kept.
	if got := sampled.CountByCat("engine"); got != 100 {
		t.Errorf("engine instants kept: %d, want all 100", got)
	}
}

func TestStreamMode(t *testing.T) {
	t.Parallel()
	buffered := New()
	emitOps(buffered, 10)
	var want bytes.Buffer
	if err := buffered.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	streamed := New()
	streamed.Configure(Config{Stream: &got})
	emitOps(streamed, 10)
	if err := streamed.FlushStream(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed JSONL differs from buffered export:\n%s\nvs\n%s", got.String(), want.String())
	}
	if streamed.Len() != 0 {
		t.Errorf("stream mode retained %d events, want 0", streamed.Len())
	}
	if streamed.TotalEmitted() != buffered.TotalEmitted() {
		t.Errorf("emitted %d, want %d", streamed.TotalEmitted(), buffered.TotalEmitted())
	}

	// Streamed output parses back into the same events.
	rt, err := ReadJSONL(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != buffered.Len() {
		t.Errorf("round-trip %d events, want %d", rt.Len(), buffered.Len())
	}
}

func TestRingMode(t *testing.T) {
	t.Parallel()
	tr := New()
	tr.Configure(Config{Ring: 7})
	emitOps(tr, 10) // 40 events total, ring keeps last 7
	evs := tr.Events()
	if len(evs) != 7 {
		t.Fatalf("ring retained %d events, want 7", len(evs))
	}
	if tr.TotalEmitted() != 40 {
		t.Errorf("emitted %d, want 40", tr.TotalEmitted())
	}
	// Events come out oldest-first; the last one is the final engine
	// instant of op batch 10, and its args must have survived the copy.
	last := evs[len(evs)-1]
	if last.Cat != "engine" {
		t.Errorf("last ring event cat %q, want engine", last.Cat)
	}
	args := tr.EvArgs(&last)
	if len(args) != 1 || args[0].Key != "fired" || args[0].IVal != 9 {
		t.Errorf("ring args wrong: %+v", args)
	}
	// Emission order across the wrap: the ring must hold exactly the
	// last 7 events a buffered tracer would have recorded.
	full := New()
	emitOps(full, 10)
	tail := full.Events()[len(full.Events())-7:]
	for i := range evs {
		if evs[i].Cat != tail[i].Cat || evs[i].Name != tail[i].Name || evs[i].TS != tail[i].TS {
			t.Errorf("ring[%d] = %s/%s@%d, want %s/%s@%d",
				i, evs[i].Cat, evs[i].Name, evs[i].TS, tail[i].Cat, tail[i].Name, tail[i].TS)
		}
	}
	// Idempotent: a second Events() call sees the same thing.
	if again := tr.Events(); len(again) != 7 || again[0] != evs[0] {
		t.Error("second Events() call differs")
	}
}

func TestDiscardAndObserver(t *testing.T) {
	t.Parallel()
	tr := New()
	var seen int
	var argSum int64
	tr.Configure(Config{Discard: true, Observer: func(e Event, args []Arg) {
		seen++
		for _, a := range args {
			if a.Key == "bytes" {
				argSum += a.IVal
			}
		}
	}})
	emitOps(tr, 5)
	if tr.Len() != 0 {
		t.Errorf("discard mode retained %d events", tr.Len())
	}
	if seen != 20 {
		t.Errorf("observer saw %d events, want 20", seen)
	}
	if argSum != 5*4096 {
		t.Errorf("observer arg sum %d, want %d", argSum, 5*4096)
	}
}

func TestResetPreservesMode(t *testing.T) {
	t.Parallel()
	tr := New()
	tr.Configure(Config{Ring: 4})
	emitOps(tr, 3)
	tr.Reset()
	if got := len(tr.Events()); got != 0 {
		t.Fatalf("ring has %d events after Reset, want 0", got)
	}
	emitOps(tr, 1)
	if got := len(tr.Events()); got != 4 {
		t.Errorf("ring has %d events after refill, want 4", got)
	}
}
