package reqtrace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	traceID, parentID, flags, ok := ParseTraceparent(
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid header rejected")
	}
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" || parentID != "00f067aa0ba902b7" || flags != 1 {
		t.Fatalf("parsed %q %q %02x", traceID, parentID, flags)
	}
	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 with trailer
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero parent
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",   // non-hex
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011",   // shifted dashes
	} {
		if _, _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted %q", bad)
		}
	}
	// A future version may carry extra fields after the flags.
	if _, _, _, ok := ParseTraceparent(
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version header with trailer rejected")
	}
}

func TestTraceIngestAndEcho(t *testing.T) {
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr, ok := FromTraceparent("http.compile", in)
	if !ok {
		t.Fatal("header not ingested")
	}
	if tr.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s", tr.TraceID())
	}
	out := tr.Traceparent()
	if !strings.HasPrefix(out, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(out, "-01") {
		t.Fatalf("echoed traceparent = %q", out)
	}
	if strings.Contains(out, "00f067aa0ba902b7") {
		t.Fatal("echoed traceparent reused the inbound span id")
	}
	doc := tr.Doc()
	if doc.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent = %q", doc.RemoteParent)
	}

	// A garbage header falls back to a minted trace.
	tr2, ok := FromTraceparent("http.compile", "nope")
	if ok {
		t.Fatal("garbage header reported ingested")
	}
	if len(tr2.TraceID()) != 32 || allZero(tr2.TraceID()) {
		t.Fatalf("minted trace id = %q", tr2.TraceID())
	}
	if tr2.TraceID() == tr.TraceID() {
		t.Fatal("minted trace id collided")
	}
}

// TestPhaseTiling pins the ledger property: consecutive phases share
// boundaries exactly, so their durations sum to the root span's
// active window with zero gap.
func TestPhaseTiling(t *testing.T) {
	tr := New("req")
	root := tr.Root()
	root.Phase("ingress")
	time.Sleep(2 * time.Millisecond)
	root.Phase("queue.wait")
	time.Sleep(2 * time.Millisecond)
	p := root.Phase("compile")
	p.SetAttr("outcome", "miss")
	time.Sleep(2 * time.Millisecond)
	root.Phase("finalize")
	root.End()

	doc := tr.Doc()
	if doc.Root.Open {
		t.Fatal("ended root still open")
	}
	if len(doc.Root.Children) != 4 {
		t.Fatalf("phases = %d", len(doc.Root.Children))
	}
	var sum int64
	for i, c := range doc.Root.Children {
		if c.Open {
			t.Fatalf("phase %s still open", c.Name)
		}
		sum += c.DurUS
		if i > 0 {
			prev := doc.Root.Children[i-1]
			if prev.StartUS+prev.DurUS != c.StartUS {
				t.Fatalf("gap between %s and %s: %d+%d != %d",
					prev.Name, c.Name, prev.StartUS, prev.DurUS, c.StartUS)
			}
		}
	}
	first := doc.Root.Children[0]
	last := doc.Root.Children[len(doc.Root.Children)-1]
	if got := last.StartUS + last.DurUS - first.StartUS; sum != got {
		t.Fatalf("phase sum %d != active window %d", sum, got)
	}
	// The root ends with the last phase, so phase sum == root duration
	// minus the (here zero) pre-phase lead-in.
	if sum > doc.Root.DurUS {
		t.Fatalf("phases (%dus) exceed root (%dus)", sum, doc.Root.DurUS)
	}
	if doc.Root.Children[2].Attrs["outcome"] != "miss" {
		t.Fatalf("attrs lost: %+v", doc.Root.Children[2].Attrs)
	}
	totals := PhaseTotals(doc.Root)
	if totals["compile"] != doc.Root.Children[2].DurUS {
		t.Fatalf("PhaseTotals = %v", totals)
	}
}

func TestChildSpansAndSnapshotOpen(t *testing.T) {
	tr := New("req")
	c := tr.Root().Child("inner")
	c.SetAttr("k", "v1")
	c.SetAttr("k", "v2") // overwrite, not duplicate
	mid := tr.Doc()
	if len(mid.Root.Children) != 1 || !mid.Root.Children[0].Open || !mid.Root.Open {
		t.Fatalf("mid-flight snapshot wrong: %+v", mid.Root)
	}
	c.End()
	c.End() // idempotent
	tr.Root().End()
	doc := tr.Doc()
	if doc.Root.Children[0].Open || doc.Root.Children[0].Attrs["k"] != "v2" {
		t.Fatalf("ended child wrong: %+v", doc.Root.Children[0])
	}
	// The doc marshals cleanly.
	if _, err := json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr := New("x")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.TraceID() != "" || tr.Traceparent() != "" || tr.ReqID() != "" {
		t.Fatal("nil trace not inert")
	}
	tr.SetReqID("x")
	if tr.Root() != nil {
		t.Fatal("nil trace has a root")
	}
	var s *Span
	s.End()
	s.SetAttr("a", "b")
	if s.Child("c") != nil || s.Phase("p") != nil {
		t.Fatal("nil span spawned children")
	}
	doc := tr.Doc()
	if doc.TraceID != "" {
		t.Fatal("nil trace doc not empty")
	}
}

// TestTraceConcurrentSpans exercises the shared-lock tree under
// parallel writers (run with -race).
func TestTraceConcurrentSpans(t *testing.T) {
	tr := New("req")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.Child("worker")
				c.SetAttr("n", "1")
				c.End()
				_ = tr.Doc()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Doc().Root.Children); got != 400 {
		t.Fatalf("children = %d, want 400", got)
	}
}
