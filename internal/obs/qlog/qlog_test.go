package qlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock(sec int) func() time.Time {
	n := 0
	return func() time.Time {
		n++
		return time.Date(2026, 8, 8, 12, 0, sec+n, 0, time.UTC)
	}
}

// TestEventSchemaGolden pins the canonical wire shape of the wide
// events the server emits. If this test breaks, downstream consumers
// (log pipelines, /debug/queries scrapers) break too — change the
// goldens only with a deliberate schema revision.
func TestEventSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{W: &buf, Now: func() time.Time {
		return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	}})

	l.Log(Info, "query",
		F("analyst", "alice"),
		F("dataset", "hotspot"),
		F("query", "count"),
		F("outcome", "ok"),
		F("epsilon", 0.1),
		F("charged_epsilon", 0.1),
		F("duration_ms", 12.5),
		F("idempotency", "miss"),
		F("ops", 3),
		F("parallel_ops", 1),
	)
	l.Log(Warn, "panic_recovered",
		F("site", "aggregation"),
		F("query", "count"),
		F("panic", "boom"),
	)
	l.Log(Error, "ledger_frozen",
		F("dataset", "hotspot"),
		F("error", "wal: torn record"),
	)

	want := strings.Join([]string{
		`{"time":"2026-08-08T12:00:00Z","level":"info","event":"query","analyst":"alice","dataset":"hotspot","query":"count","outcome":"ok","epsilon":0.1,"charged_epsilon":0.1,"duration_ms":12.5,"idempotency":"miss","ops":3,"parallel_ops":1}`,
		`{"time":"2026-08-08T12:00:00Z","level":"warn","event":"panic_recovered","site":"aggregation","query":"count","panic":"boom"}`,
		`{"time":"2026-08-08T12:00:00Z","level":"error","event":"ledger_frozen","dataset":"hotspot","error":"wal: torn record"}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch\n got: %s\nwant: %s", got, want)
	}

	// Every line must also be valid JSON that round-trips through
	// Event, preserving name, level and field order.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line not decodable: %v\n%s", err, line)
		}
		re, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(re) != line {
			t.Errorf("round trip changed encoding\n got: %s\nwant: %s", re, line)
		}
	}
}

func TestEventReservedKeysRenamed(t *testing.T) {
	e := Event{Name: "x"}.With(F("event", "spoof"), F("time", "spoof"))
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if m["event"] != "x" {
		t.Errorf("event key overwritten: %v", m["event"])
	}
	if m["field_event"] != "spoof" || m["field_time"] != "spoof" {
		t.Errorf("colliding fields not renamed: %v", m)
	}
}

func TestEventUnencodableField(t *testing.T) {
	b, err := json.Marshal(Event{Name: "x"}.With(F("ch", make(chan int))))
	if err != nil {
		t.Fatalf("event with bad field must still encode: %v", err)
	}
	if !json.Valid(b) {
		t.Fatalf("invalid JSON: %s", b)
	}
	if !strings.Contains(string(b), "!ERR(") {
		t.Errorf("bad field not flagged: %s", b)
	}
}

func TestRingEviction(t *testing.T) {
	l := New(Options{Now: fixedClock(0)})
	const n = RingSize + 6
	for i := 0; i < n; i++ {
		l.Log(Info, fmt.Sprintf("e%d", i))
	}
	if got := l.Len(); got != RingSize {
		t.Fatalf("Len = %d, want %d", got, RingSize)
	}
	got := l.Recent(0)
	for i, e := range got {
		if want := fmt.Sprintf("e%d", n-1-i); e.Name != want {
			t.Errorf("Recent[%d] = %q, want %q", i, e.Name, want)
		}
	}
	if sub := l.Recent(2); len(sub) != 2 || sub[0].Name != fmt.Sprintf("e%d", n-1) || sub[1].Name != fmt.Sprintf("e%d", n-2) {
		t.Errorf("Recent(2) = %+v", sub)
	}
}

// TestRingConcurrentWriters exercises ring eviction under many
// concurrent writers; run with -race. The ring must neither grow nor
// lose its newest-first ordering invariants.
func TestRingConcurrentWriters(t *testing.T) {
	l := New(Options{})
	const writers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Log(Info, "evt", F("writer", w), F("i", i))
				if i%50 == 0 {
					l.Recent(4) // concurrent readers too
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Len(); got != RingSize {
		t.Fatalf("Len = %d, want %d", got, RingSize)
	}
	recent := l.Recent(0)
	if len(recent) != RingSize {
		t.Fatalf("Recent(0) returned %d events", len(recent))
	}
	for _, e := range recent {
		if e.Name != "evt" || len(e.Fields) != 2 {
			t.Errorf("torn event in ring: %+v", e)
		}
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Log(Info, "x", F("k", "v"))
	l.Emit(Event{Name: "y"})
	if l.Recent(5) != nil || l.Len() != 0 {
		t.Error("nil logger must act empty")
	}
}

func TestLogfAdapter(t *testing.T) {
	l := New(Options{})
	f := l.Logf(Warn, "ledger_warning")
	f("snapshot %d stale", 7)
	ev := l.Recent(1)
	if len(ev) != 1 || ev[0].Name != "ledger_warning" || ev[0].Level != Warn {
		t.Fatalf("adapter event = %+v", ev)
	}
	if len(ev[0].Fields) != 1 || ev[0].Fields[0].Value != "snapshot 7 stale" {
		t.Errorf("adapter fields = %+v", ev[0].Fields)
	}
}

func TestLevelJSON(t *testing.T) {
	for _, lv := range []Level{Debug, Info, Warn, Error} {
		b, err := json.Marshal(lv)
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != lv {
			t.Errorf("level %v round-tripped to %v", lv, back)
		}
	}
	var bad Level
	if err := json.Unmarshal([]byte(`"loud"`), &bad); err == nil {
		t.Error("unknown level must fail to decode")
	}
}
