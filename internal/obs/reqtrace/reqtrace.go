// Package reqtrace is the request-tracing layer of the observability
// subsystem: where package obs attributes time to compiler pipeline
// phases inside one process, reqtrace attributes a served request's
// wall time to the serving stack it crossed — HTTP ingress, scheduler
// queue wait, cache probe, compile, place, simulate — as a span tree
// keyed by W3C trace-context ids. It is the paper's BSP cost ledger
// (every second charged to a program point) lifted one layer up, to
// the daemon.
//
// Like the rest of internal/obs it is stdlib-only and nil-safe: a nil
// *Trace or *Span is inert, so handlers thread one unconditionally.
//
// Two span idioms are supported:
//
//   - Child/End: ordinary nested spans with explicit lifetimes.
//   - Phase: gap-free sequential segments of a parent span. Ending
//     one phase and starting the next uses a single clock reading, so
//     the phases tile the parent exactly — summed phase durations
//     account for every microsecond between the first phase's start
//     and the last phase's end. That is what makes "queue + cache +
//     compile + place + simulate ≈ wall time" an invariant rather
//     than an aspiration.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span tree plus its W3C trace-context
// identity. All methods are safe for concurrent use; the whole tree
// shares the trace's lock (span trees are shallow and short-lived, so
// contention is not a concern).
type Trace struct {
	mu sync.Mutex
	// traceID is 32 lowercase hex characters; remoteParent is the
	// 16-hex parent span id of an ingested traceparent ("" when the
	// trace was minted locally). flags preserves the inbound
	// trace-flags byte (01 when minted locally).
	traceID      string
	remoteParent string
	flags        byte
	reqID        string
	start        time.Time
	root         *Span
}

// Span is one timed operation inside a trace.
type Span struct {
	tr       *Trace
	name     string
	spanID   string
	startUS  int64
	durUS    int64
	ended    bool
	attrs    []attrKV
	children []*Span
	// phase is the currently open phase child (see Phase).
	phase *Span
}

type attrKV struct{ k, v string }

// New mints a trace with a fresh random trace id and opens its root
// span under the given name.
func New(name string) *Trace {
	t := &Trace{traceID: randHex(16), flags: 0x01, start: time.Now()}
	t.root = &Span{tr: t, name: name, spanID: randHex(8)}
	return t
}

// FromTraceparent builds a trace from an inbound W3C traceparent
// header, adopting its trace id and recording its span id as the
// remote parent; a missing or malformed header falls back to a
// locally minted trace. The second result reports whether the header
// was ingested.
func FromTraceparent(name, header string) (*Trace, bool) {
	traceID, parentID, flags, ok := ParseTraceparent(header)
	t := New(name)
	if ok {
		t.traceID = traceID
		t.remoteParent = parentID
		t.flags = flags
	}
	return t, ok
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
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("00-%s-%s-%02x", t.traceID, t.root.spanID, t.flags)
}

// TraceID returns the 32-hex trace id.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetReqID binds the daemon's request id to the trace.
func (t *Trace) SetReqID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqID = id
}

// ReqID returns the bound request id.
func (t *Trace) ReqID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqID
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// nowUS is the trace-relative clock all spans share.
func (t *Trace) nowUS() int64 { return time.Since(t.start).Microseconds() }

// Child opens a nested span; the caller must End it.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.childLocked(name, s.tr.nowUS())
}

func (s *Span) childLocked(name string, startUS int64) *Span {
	c := &Span{tr: s.tr, name: name, spanID: randHex(8), startUS: startUS}
	s.children = append(s.children, c)
	return c
}

// Phase ends the span's currently open phase (if any) and opens the
// next one at the same clock reading, so consecutive phases tile the
// parent with no gap. It returns the new phase span.
func (s *Span) Phase(name string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	now := s.tr.nowUS()
	s.closePhaseLocked(now)
	c := s.childLocked(name, now)
	s.phase = c
	return c
}

func (s *Span) closePhaseLocked(nowUS int64) {
	if s.phase != nil && !s.phase.ended {
		s.phase.durUS = nowUS - s.phase.startUS
		s.phase.ended = true
	}
	s.phase = nil
}

// End closes the span (idempotent). Ending a span also closes its
// open phase at the same instant.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	now := s.tr.nowUS()
	s.closePhaseLocked(now)
	s.durUS = now - s.startUS
	s.ended = true
}

// SetAttr attaches a key/value attribute (insertion order preserved;
// a repeated key overwrites).
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].k == key {
			s.attrs[i].v = val
			return
		}
	}
	s.attrs = append(s.attrs, attrKV{key, val})
}

// SpanDoc is the exported form of one span: microseconds relative to
// the trace start, attributes, and nested children.
type SpanDoc struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanDoc         `json:"children,omitempty"`
}

// TraceDoc is the exported form of a whole trace.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	// RemoteParent is the parent span id of the ingested traceparent,
	// when the client sent one.
	RemoteParent string  `json:"remote_parent,omitempty"`
	ReqID        string  `json:"req_id,omitempty"`
	UnixNS       int64   `json:"unix_ns"`
	Root         SpanDoc `json:"root"`
}

// Doc snapshots the trace. Spans still open are exported with their
// duration-so-far and Open set, so a snapshot mid-request is honest.
func (t *Trace) Doc() TraceDoc {
	if t == nil {
		return TraceDoc{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.nowUS()
	return TraceDoc{
		TraceID:      t.traceID,
		RemoteParent: t.remoteParent,
		ReqID:        t.reqID,
		UnixNS:       t.start.UnixNano(),
		Root:         t.root.docLocked(now),
	}
}

func (s *Span) docLocked(nowUS int64) SpanDoc {
	d := SpanDoc{Name: s.name, SpanID: s.spanID, StartUS: s.startUS, DurUS: s.durUS}
	if !s.ended {
		d.DurUS = nowUS - s.startUS
		d.Open = true
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, kv := range s.attrs {
			d.Attrs[kv.k] = kv.v
		}
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.docLocked(nowUS))
	}
	return d
}

// PhaseTotals sums a span doc's direct children by name — the
// flight-recorder summary of where the request's time went.
func PhaseTotals(d SpanDoc) map[string]int64 {
	if len(d.Children) == 0 {
		return nil
	}
	out := make(map[string]int64, len(d.Children))
	for _, c := range d.Children {
		out[c.Name] += c.DurUS
	}
	return out
}

type ctxKey struct{}

// NewContext binds a trace to a context.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the bound trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
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
