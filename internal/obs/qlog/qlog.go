// Package qlog is the system's structured wide-event logger: the
// single spine through which operational events — query completions,
// recovered panics, load sheds, ledger freeze/degrade transitions,
// drains — leave the process. One event is one JSON object on one
// line ("wide events": everything known about the occurrence in one
// record, rather than scattered printf fragments), so operators can
// grep a terminal, tail a file, or ship the stream to any pipeline
// without a parsing layer.
//
// Design constraints, in order:
//
//   - Zero dependencies (stdlib only), like the rest of internal/obs.
//   - Deterministic encoding: fields render in the order they were
//     attached, so an event type has ONE canonical JSON shape and the
//     schema can be pinned by golden tests.
//   - Bounded memory: a fixed ring of recent events backs the
//     server's GET /debug/queries flight recorder; the ring never
//     grows and never blocks a writer.
//   - Cheap to drop: a nil *Logger is valid and discards everything,
//     so call sites need no guards; per-event-name sampling thins
//     high-volume event types (sheds under overload) without losing
//     the rare ones.
//
// Events carry operational metadata only — names, durations, counts,
// ε amounts, outcomes. Never record data, and never raw (pre-noise)
// aggregate values; see the profile invariant in DESIGN.md §S31.
package qlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level classifies an event's severity.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String renders the level the way it appears on the wire.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "info"
	}
}

// MarshalJSON encodes the level as its lowercase name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON decodes a lowercase level name.
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "debug":
		*l = Debug
	case "info":
		*l = Info
	case "warn":
		*l = Warn
	case "error":
		*l = Error
	default:
		return fmt.Errorf("qlog: unknown level %q", s)
	}
	return nil
}

// Field is one key/value pair of a wide event. Fields keep their
// attachment order through encoding, which is what makes an event
// type's JSON shape canonical.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; it exists so call sites read as F("analyst", a).
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one wide event. The wire form is a single flat JSON
// object: the three envelope keys ("time", "level", "event") followed
// by every field in attachment order:
//
//	{"time":"2026-08-08T12:00:00Z","level":"info","event":"query",
//	 "analyst":"alice","dataset":"hotspot",...}
type Event struct {
	Time   time.Time
	Level  Level
	Name   string
	Fields []Field
}

// envelope keys reserved by the Event encoding; a field using one
// would produce duplicate JSON keys, so With renames it.
func reservedKey(k string) bool {
	return k == "time" || k == "level" || k == "event"
}

// With returns a copy of the event with the extra fields appended.
// Fields whose key collides with an envelope key are prefixed with
// "field_" rather than silently producing invalid JSON.
func (e Event) With(fields ...Field) Event {
	out := e
	out.Fields = append(append([]Field(nil), e.Fields...), fields...)
	for i := range out.Fields {
		if reservedKey(out.Fields[i].Key) {
			out.Fields[i].Key = "field_" + out.Fields[i].Key
		}
	}
	return out
}

// MarshalJSON implements the canonical encoding described on Event.
func (e Event) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	b.WriteString(`"time":`)
	ts, err := e.Time.UTC().MarshalJSON()
	if err != nil {
		return nil, err
	}
	b.Write(ts)
	b.WriteString(`,"level":"`)
	b.WriteString(e.Level.String())
	b.WriteString(`","event":`)
	b.WriteString(strconv.Quote(e.Name))
	for _, f := range e.Fields {
		b.WriteByte(',')
		key := f.Key
		if reservedKey(key) {
			key = "field_" + key
		}
		b.WriteString(strconv.Quote(key))
		b.WriteByte(':')
		v, err := json.Marshal(f.Value)
		if err != nil {
			// A field that cannot encode (NaN, a channel) must not lose
			// the whole event; encode what we can say about it instead.
			v, _ = json.Marshal(fmt.Sprintf("!ERR(%v)", err))
		}
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes the envelope keys and collects every other
// key as a field. Field order follows the JSON document order.
func (e *Event) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("qlog: event must be a JSON object")
	}
	*e = Event{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key := keyTok.(string)
		switch key {
		case "time":
			var t time.Time
			if err := decodeNext(dec, &t); err != nil {
				return err
			}
			e.Time = t
		case "level":
			var l Level
			if err := decodeNext(dec, &l); err != nil {
				return err
			}
			e.Level = l
		case "event":
			var s string
			if err := decodeNext(dec, &s); err != nil {
				return err
			}
			e.Name = s
		default:
			var v any
			if err := decodeNext(dec, &v); err != nil {
				return err
			}
			e.Fields = append(e.Fields, Field{Key: key, Value: v})
		}
	}
	_, err = dec.Token() // closing brace
	return err
}

func decodeNext(dec *json.Decoder, v any) error {
	raw := json.RawMessage{}
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// Options configures New.
type Options struct {
	// W receives one JSON line per emitted event. Nil keeps events in
	// the ring only — the mode a server uses when no log sink is
	// configured but /debug/queries should still work.
	W io.Writer
	// MinLevel drops events below it (default Debug: keep everything).
	MinLevel Level
	// RingSize bounds the ring of recent events; non-positive selects
	// DefaultRingSize.
	RingSize int
	// Sample maps an event name to its keep-1-in-N sampling rate:
	// Sample["query_shed"] = 100 keeps the 1st, 101st, 201st... shed
	// event and drops the rest (writer and ring alike). Names absent
	// from the map — and rates < 2 — are never sampled. Sampling is
	// counter-based and deterministic, so tests and replays see the
	// same kept set.
	Sample map[string]int
	// Now is the clock (a test seam); nil means time.Now.
	Now func() time.Time
}

// DefaultRingSize bounds the recent-event ring when Options.RingSize
// is unset.
const DefaultRingSize = 256

// Logger emits wide events. All methods are safe for concurrent use,
// and all methods on a nil *Logger are no-ops, so optional telemetry
// call sites need no guards.
type Logger struct {
	mu       sync.Mutex
	w        io.Writer
	min      Level
	ring     []Event
	next     int
	count    int
	sample   map[string]int
	counters map[string]uint64
	now      func() time.Time
	dropped  uint64
}

// New creates a Logger (see Options).
func New(opts Options) *Logger {
	size := opts.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Logger{
		w:        opts.W,
		min:      opts.MinLevel,
		ring:     make([]Event, size),
		sample:   opts.Sample,
		counters: make(map[string]uint64),
		now:      now,
	}
}

// Log emits one event with the given fields, stamped now.
func (l *Logger) Log(level Level, name string, fields ...Field) {
	if l == nil {
		return
	}
	l.Emit(Event{Level: level, Name: name}.With(fields...))
}

// Emit records one event: into the ring and onto the writer. A zero
// Time is stamped with the logger's clock.
// Events below MinLevel, and events thinned by sampling, are counted
// as dropped and otherwise ignored.
func (l *Logger) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if e.Level < l.min || !l.keepLocked(e.Name) {
		l.dropped++
		l.mu.Unlock()
		return
	}
	if e.Time.IsZero() {
		e.Time = l.now()
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.count < len(l.ring) {
		l.count++
	}
	var line []byte
	if l.w != nil {
		line, _ = json.Marshal(e)
	}
	w := l.w
	l.mu.Unlock()

	// I/O happens outside the lock so a slow sink cannot stall the
	// ring (writers may interleave lines only at whole-line
	// granularity because each write is a single call).
	if w != nil && line != nil {
		_, _ = w.Write(append(line, '\n'))
	}
}

// keepLocked applies counter-based sampling for one event name.
func (l *Logger) keepLocked(name string) bool {
	rate := l.sample[name]
	if rate < 2 {
		return true
	}
	n := l.counters[name]
	l.counters[name] = n + 1
	return n%uint64(rate) == 0
}

// Recent returns up to n recent events, newest first; n <= 0 returns
// everything held.
func (l *Logger) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.count {
		n = l.count
	}
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Len reports how many events the ring holds.
func (l *Logger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Dropped reports how many events were discarded by level filtering
// or sampling since creation.
func (l *Logger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Logf adapts the logger to the func(format, args...) shape older
// seams expect (ledger.Options.Logf): each formatted line becomes one
// event of the given name with the rendered text under "msg".
func (l *Logger) Logf(level Level, name string) func(format string, args ...any) {
	return func(format string, args ...any) {
		l.Log(level, name, F("msg", fmt.Sprintf(format, args...)))
	}
}
