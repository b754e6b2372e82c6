// Package reqtrace is the request-identity layer of the observability
// subsystem: a served request's W3C trace-context identity (trace id,
// the daemon's root span id echoed in traceparent, the client's span as
// remote parent) and request id, its binding to a context together with
// the request's obs.Recorder — which holds the request's spans: the
// phases that tile its wall time and the pipeline spans that ran inside
// them — and the flight recorder that retains finished requests.
//
// A nil *Trace is inert, so handlers thread one unconditionally.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"gcao/internal/obs"
)

// Trace is one request's W3C trace-context identity and request id. It
// is immutable, so it is safe for concurrent use.
type Trace struct {
	// traceID is 32 lowercase hex characters and spanID the 16-hex id
	// of the daemon's root span; remoteParent is the 16-hex parent span
	// id of an ingested traceparent ("" when the trace was minted
	// locally). flags preserves the inbound trace-flags byte (01 when
	// minted locally).
	traceID      string
	spanID       string
	remoteParent string
	flags        byte
	reqID        string
}

// New mints a trace with a fresh random trace id for the request id.
func New(reqID string) *Trace {
	return &Trace{traceID: randHex(16), spanID: randHex(8), flags: 0x01, reqID: reqID}
}

// FromTraceparent builds the trace of request reqID from an inbound W3C
// traceparent header, adopting its trace id and recording its span id as
// the remote parent; a missing or malformed header falls back to a
// locally minted trace. The second result reports whether the header
// was ingested.
func FromTraceparent(header, reqID string) (*Trace, bool) {
	traceID, parentID, flags, ok := ParseTraceparent(header)
	if !ok {
		return New(reqID), false
	}
	return &Trace{traceID: traceID, spanID: randHex(8), remoteParent: parentID, flags: flags, reqID: reqID}, true
}

// ParseTraceparent validates a W3C traceparent header
// (version-traceid-parentid-flags) and returns its parts. Version
// ff, all-zero ids, wrong field widths and non-hex characters are
// rejected, per the spec.
func ParseTraceparent(header string) (traceID, parentID string, flags byte, ok bool) {
	if len(header) < 55 || header[2] != '-' || header[35] != '-' || header[52] != '-' {
		return "", "", 0, false
	}
	// Future versions may append fields after the flags, but a
	// version-00 header must be exactly 55 characters.
	ver, verOK := hexByte(header[0:2])
	if !verOK || ver == 0xff || (ver == 0 && len(header) != 55) {
		return "", "", 0, false
	}
	traceID, parentID = header[3:35], header[36:52]
	if !isLowerHex(traceID) || !isLowerHex(parentID) {
		return "", "", 0, false
	}
	if allZero(traceID) || allZero(parentID) {
		return "", "", 0, false
	}
	fl, flOK := hexByte(header[53:55])
	if !flOK {
		return "", "", 0, false
	}
	return traceID, parentID, fl, true
}

// Traceparent renders the header value identifying this trace's root
// span, suitable for echoing to the client (same trace id the caller
// sent, our root span as the parent for anything downstream).
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%s-%02x", t.traceID, t.spanID, t.flags)
}

// TraceID returns the 32-hex trace id.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// RemoteParent returns the parent span id of the ingested traceparent,
// or "" when the trace was minted locally.
func (t *Trace) RemoteParent() string {
	if t == nil {
		return ""
	}
	return t.remoteParent
}

// ReqID returns the daemon's request id.
func (t *Trace) ReqID() string {
	if t == nil {
		return ""
	}
	return t.reqID
}

type ctxKey struct{}

// bound is what a request's context carries.
type bound struct {
	tr  *Trace
	rec *obs.Recorder
}

// NewContext binds a request's trace and its recorder to a context.
func NewContext(ctx context.Context, t *Trace, rec *obs.Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, &bound{t, rec})
}

// FromContext returns the bound trace and recorder, or nils.
func FromContext(ctx context.Context) (*Trace, *obs.Recorder) {
	b, _ := ctx.Value(ctxKey{}).(*bound)
	if b == nil {
		return nil, nil
	}
	return b.tr, b.rec
}

// randHex returns 2n lowercase hex characters from a crypto/rand
// seed, falling back to a counter-derived id if the system source is
// unavailable (ids must never be empty or all-zero).
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		c := fallbackCtr.Add(1)
		for i := range b {
			b[i] = byte(c >> (8 * (uint(i) % 8)))
		}
		b[0] |= 0x01
	}
	return hex.EncodeToString(b)
}

var fallbackCtr atomic.Uint64

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func hexByte(s string) (byte, bool) {
	if len(s) != 2 || !isLowerHex(s) {
		return 0, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return 0, false
	}
	return b[0], true
}
