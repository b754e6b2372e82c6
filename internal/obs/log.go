package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity, numbered like log/slog so the two scales
// interoperate.
type Level int

const (
	LevelDebug Level = -4
	LevelInfo  Level = 0
	LevelWarn  Level = 4
	LevelError Level = 8
)

func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l <= LevelInfo:
		return "info"
	case l <= LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel resolves "debug", "info", "warn" or "error".
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q", s)
}

// Field is one key/value pair of a structured event.
type Field struct {
	Key string
	Val any
}

// F builds a Field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Logger is a leveled structured event logger emitting one JSON object
// per line: {"ts":…,"level":…,"event":…, bound fields…, call fields…}.
// Field order is insertion order (not sorted), so request-scoped bound
// fields like the request id lead every line. All methods are safe for
// concurrent use and nil-safe, mirroring the Recorder contract.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	min   Level
	bound []Field
	// now is the clock, replaceable in tests.
	now func() time.Time
}

// NewLogger builds a logger writing events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, now: time.Now}
}

// With returns a logger sharing the sink whose every event carries the
// given bound fields first.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	b := append(append([]Field(nil), l.bound...), fields...)
	return &Logger{mu: l.mu, w: l.w, min: l.min, bound: b, now: l.now}
}

// Enabled reports whether events at the level would be written.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Log writes one event if the level passes the threshold.
func (l *Logger) Log(lv Level, event string, fields ...Field) {
	if !l.Enabled(lv) {
		return
	}
	var b strings.Builder
	b.WriteByte('{')
	writeJSONField(&b, "ts", l.now().UTC().Format(time.RFC3339Nano))
	b.WriteByte(',')
	writeJSONField(&b, "level", lv.String())
	b.WriteByte(',')
	writeJSONField(&b, "event", event)
	for _, f := range l.bound {
		b.WriteByte(',')
		writeJSONField(&b, f.Key, f.Val)
	}
	for _, f := range fields {
		b.WriteByte(',')
		writeJSONField(&b, f.Key, f.Val)
	}
	b.WriteString("}\n")
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// Debug, Info and Error are Log at fixed levels.
func (l *Logger) Debug(event string, fields ...Field) { l.Log(LevelDebug, event, fields...) }
func (l *Logger) Info(event string, fields ...Field)  { l.Log(LevelInfo, event, fields...) }
func (l *Logger) Error(event string, fields ...Field) { l.Log(LevelError, event, fields...) }

// writeJSONField appends `"key":value` with the value marshaled by
// encoding/json; unmarshalable values degrade to their fmt
// representation rather than dropping the event.
func writeJSONField(b *strings.Builder, key string, val any) {
	kb, _ := json.Marshal(key)
	b.Write(kb)
	b.WriteByte(':')
	vb, err := json.Marshal(val)
	if err != nil {
		vb, _ = json.Marshal(fmt.Sprintf("%v", val))
	}
	b.Write(vb)
}
