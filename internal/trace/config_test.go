package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// emitWorkload records a fixed event mix: multiple ops (so sampling has
// something to drop), args, spans and instants.
func emitWorkload(t *Tracer) {
	for i := 0; i < 50; i++ {
		op := t.NewOpID()
		sid := t.NewSpanID()
		ctx := Ctx{Op: op}
		t.SpanCtx(ctx, sid, "rpc", "call", fmt.Sprintf("srv%d", i%4),
			int64(i)*1000, int64(i)*1000+500,
			I("bytes", int64(i)), S("peer", "c0"))
		t.InstantCtx(Ctx{Op: op, Parent: sid}, "token", "grant", "mgr", int64(i)*1000+100)
	}
	t.InstantCtx(Ctx{}, "engine", "sample", "engine", 99, I("fired", 12))
}

// TestConfigPrecedence: stream wins over ring wins over discard, matching
// the documented resolution order.
func TestConfigPrecedence(t *testing.T) {
	t.Parallel()
	var w bytes.Buffer
	tr := New()
	tr.Configure(Config{Stream: &w, Ring: 8, Discard: true})
	emitWorkload(tr)
	if err := tr.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("stream did not win precedence")
	}
	if tr.Len() != 0 {
		t.Fatal("stream mode retained events")
	}

	tr2 := New()
	tr2.Configure(Config{Ring: 8, Discard: true})
	emitWorkload(tr2)
	if n := len(tr2.Events()); n != 8 {
		t.Fatalf("ring did not win precedence over discard: %d events", n)
	}
}
