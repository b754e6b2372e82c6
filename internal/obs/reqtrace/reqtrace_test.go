package reqtrace

import (
	"context"
	"strings"
	"testing"

	"gcao/internal/obs"
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
	tr, ok := FromTraceparent(in, "r1")
	if !ok {
		t.Fatal("header not ingested")
	}
	if tr.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" || tr.ReqID() != "r1" {
		t.Fatalf("trace id = %s, request id %s", tr.TraceID(), tr.ReqID())
	}
	out := tr.Traceparent()
	if !strings.HasPrefix(out, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(out, "-01") {
		t.Fatalf("echoed traceparent = %q", out)
	}
	if strings.Contains(out, "00f067aa0ba902b7") {
		t.Fatal("echoed traceparent reused the inbound span id")
	}
	if tr.RemoteParent() != "00f067aa0ba902b7" {
		t.Fatalf("remote parent = %q", tr.RemoteParent())
	}

	// A garbage header falls back to a minted trace.
	tr2, ok := FromTraceparent("nope", "r2")
	if ok {
		t.Fatal("garbage header reported ingested")
	}
	if len(tr2.TraceID()) != 32 || allZero(tr2.TraceID()) || tr2.RemoteParent() != "" || tr2.ReqID() != "r2" {
		t.Fatalf("minted trace = %+v", tr2)
	}
	if tr2.TraceID() == tr.TraceID() {
		t.Fatal("minted trace id collided")
	}
	if _, _, _, ok := ParseTraceparent(tr2.Traceparent()); !ok {
		t.Fatalf("minted traceparent %q invalid", tr2.Traceparent())
	}
}

func TestContextRoundTrip(t *testing.T) {
	if tr, rec := FromContext(context.Background()); tr != nil || rec != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr, rec := New("x"), obs.New()
	ctx := NewContext(context.Background(), tr, rec)
	if gotTr, gotRec := FromContext(ctx); gotTr != tr || gotRec != rec {
		t.Fatal("trace or recorder lost in context")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.TraceID() != "" || tr.Traceparent() != "" || tr.ReqID() != "" || tr.RemoteParent() != "" {
		t.Fatal("nil trace not inert")
	}
}
