package trace

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
)

// NDJSON batch encoding: one JSON object per line, the wire format
// live ingestion speaks (Content-Type application/x-ndjson; see
// internal/dpserver/api). It exists alongside the DPTR binary
// container because ingest senders are often not Go programs — a
// capture agent shelling out packets as JSON lines needs no varint
// framing. Both decode to identical records.
//
// The wire contract is: whatever encoding/json with
// DisallowUnknownFields decodes into PacketJSON
// (addresses must then parse as IPv4), one object per line, nothing
// after it. decodeStrict and slowPacket are that contract
// and the only place a line is refused; errors name the 1-based line,
// because an ingest 400 must tell the sender which one to look at.
//
// Reflection costs ~2.7 µs a record, so each line is first offered to
// parseFlat, a tokenizer for a flat object of integer / string fields
// driven by the shape's field table. It answers only for lines it can
// prove encoding/json would decode to the same value: exact-case
// known keys at most once each, unescaped ASCII strings, plain
// decimal integers in range, strict dotted quads, std-base64
// payload, optional JSON whitespace between tokens. Everything else —
// case-folded or unknown keys, escapes, duplicates, null, 1e3,
// leading zeros, overflow, a missing address, anything after the
// closing brace — is deferred, never rejected: the slow path decides.
// The input alone selects the path.
//
// A batch of at least two minPiece pieces is cut at newlines into up
// to GOMAXPROCS pieces, parsed concurrently (the caller takes the last)
// into their own regions of one record slice; the split changes no
// record, error or fast-path count.

// PacketJSON is the NDJSON wire shape of one Packet. Payload rides as
// standard JSON base64; absent fields are zero.
type PacketJSON struct {
	Time    int64  `json:"time"`
	SrcIP   string `json:"srcIP"`
	DstIP   string `json:"dstIP"`
	SrcPort uint16 `json:"srcPort,omitempty"`
	DstPort uint16 `json:"dstPort,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
	Flags   uint8  `json:"flags,omitempty"`
	Seq     uint32 `json:"seq,omitempty"`
	Ack     uint32 `json:"ack,omitempty"`
	Len     uint16 `json:"len"`
	Payload []byte `json:"payload,omitempty"`
}

// ParseIPv4 parses a dotted-quad IPv4 address.
func ParseIPv4(s string) (IPv4, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("trace: bad IPv4 %q: %w", s, err)
	}
	if !a.Is4() {
		return 0, fmt.Errorf("trace: %q is not IPv4", s)
	}
	b := a.As4()
	return MakeIPv4(b[0], b[1], b[2], b[3]), nil
}

// errTrailing refuses a line with anything after its first JSON
// value: json.Decoder stops there, so the rest would be dropped
// without a word.
var errTrailing = errors.New("more than one JSON value on the line")

// decodeStrict unmarshals one line refusing unknown fields and
// trailing data.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if skipSpace(raw, int(dec.InputOffset())) < len(raw) {
		return errTrailing
	}
	return nil
}

// fieldKind is what parseFlat accepts as a field's value.
type fieldKind uint8

const (
	kindInt    fieldKind = iota // plain decimal integer within [-max-1 if neg, max]
	kindIPv4                    // string holding a strict dotted quad
	kindBase64                  // string holding std-base64 bytes
)

// field is one row of a wire shape's table: the JSON key, which values
// the fast path answers for, and where the value lands in T.
type field[T any] struct {
	name      string
	lit       string // `"name":`, set by keyed
	kind      fieldKind
	max       uint64 // kindInt: largest value
	neg       bool   // kindInt: negatives down to -max-1 too
	required  bool   // absent defers the line (the slow path refuses "")
	omitempty bool   // the encoders leave it out when zero
	set       func(rec *T, v int64, b []byte)
}

// keyed fills in each field's key literal.
func keyed[T any](fields []field[T]) []field[T] {
	for k := range fields {
		fields[k].lit = `"` + fields[k].name + `":`
	}
	return fields
}

// shape is one record type on the wire: its field table, the
// encoding/json path for the lines the table cannot answer, and the
// length of the shortest line that yields a record, which keeps a body
// of bare newlines from presizing the output.
type shape[T any] struct {
	fields  []field[T]
	minLine int
	slow    func(line int, raw []byte) (T, error)
}

var packetShape = shape[Packet]{
	minLine: len(`{"srcIP":"1.1.1.1","dstIP":"1.1.1.1"}`),
	slow:    slowPacket,
	fields: keyed([]field[Packet]{
		{name: "time", max: math.MaxInt64, neg: true, set: func(p *Packet, v int64, _ []byte) { p.Time = v }},
		{name: "srcIP", kind: kindIPv4, required: true, set: func(p *Packet, v int64, _ []byte) { p.SrcIP = IPv4(v) }},
		{name: "dstIP", kind: kindIPv4, required: true, set: func(p *Packet, v int64, _ []byte) { p.DstIP = IPv4(v) }},
		{name: "srcPort", max: math.MaxUint16, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.SrcPort = uint16(v) }},
		{name: "dstPort", max: math.MaxUint16, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.DstPort = uint16(v) }},
		{name: "proto", max: math.MaxUint8, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.Proto = uint8(v) }},
		{name: "flags", max: math.MaxUint8, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.Flags = TCPFlags(v) }},
		{name: "seq", max: math.MaxUint32, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.Seq = uint32(v) }},
		{name: "ack", max: math.MaxUint32, omitempty: true, set: func(p *Packet, v int64, _ []byte) { p.Ack = uint32(v) }},
		{name: "len", max: math.MaxUint16, set: func(p *Packet, v int64, _ []byte) { p.Len = uint16(v) }},
		{name: "payload", kind: kindBase64, omitempty: true, set: func(p *Packet, _ int64, b []byte) { p.Payload = b }},
	}),
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	if i < len(b) && b[i] > ' ' {
		return i
	}
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString reads the string literal opening at b[i] and returns its
// contents and the index after the closing quote. It gives up on an
// escape, a control character or a non-ASCII byte, where the contents
// would not be the bytes between the quotes.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanDigits reads 0|[1-9][0-9]* at b[i]. Nineteen digits cannot
// overflow a uint64, so callers' range checks are exact.
func scanDigits(b []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	n := i - start
	return v, i, n > 0 && n <= 19 && (n == 1 || b[start] != '0')
}

// scanInt reads an integer in [-max-1 if negOK else 0, max] at b[i].
func scanInt(b []byte, i int, max uint64, negOK bool) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	m, i, ok := scanDigits(b, i)
	if neg {
		return -int64(m), i, ok && negOK && m <= max+1 // -int64(1<<63) is MinInt64
	}
	return int64(m), i, ok && m <= max
}

// scanQuad reads a string holding exactly the dotted quads
// netip.ParseAddr accepts: four octets, no leading zero, at most 255.
func scanQuad(b []byte, i int) (ip int64, next int, ok bool) {
	s, next, ok := scanString(b, i)
	i = 0
	for octet := 0; ok && octet < 4; octet++ {
		if octet > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, 0, false
			}
			i++
		}
		var v uint64
		v, i, ok = scanDigits(s, i)
		ip, ok = ip<<8|int64(v), ok && v <= 255
	}
	return ip, next, ok && i == len(s)
}

// payloadChunk is how much payload space a piece allocates at a time:
// its payloads are carved, capacity-clipped, from shared chunks
// instead of costing an allocation each. 8 KiB holds the payloads of
// a 1,000-packet Hotspot batch, or of either half of one.
const payloadChunk = 8192

// scanBase64 reads a string holding std-base64 into the arena, with
// encoding/json's own decoding call.
func scanBase64(b []byte, i int, arena *[]byte) (payload []byte, next int, ok bool) {
	s, next, ok := scanString(b, i)
	if !ok {
		return nil, 0, false
	}
	// >= so that "" finds an arena too and is empty, not nil.
	if need := base64.StdEncoding.DecodedLen(len(s)); need >= len(*arena) {
		*arena = make([]byte, max(need, payloadChunk))
	}
	n, err := base64.StdEncoding.Decode(*arena, s)
	if err != nil {
		return nil, 0, false
	}
	payload, *arena = (*arena)[:n:n], (*arena)[n:]
	return payload, next, true
}

// parseFlat decodes one line into rec through the field table. A
// false return means "ask encoding/json", not "bad line"; rec may be
// half-written by then.
func parseFlat[T any](line []byte, fields []field[T], rec *T, arena *[]byte) bool {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	i++
	var seen uint
	next := 0 // senders keep table order: the next key is usually fields[next]
	for n := 0; ; n++ {
		i = skipSpace(line, i)
		if n == 0 && i < len(line) && line[i] == '}' {
			i++
			break
		}
		// The key as one literal, quotes and colon included, trying
		// fields in table order past those a sender may omit.
		k := -1
		for at := next; at < len(fields); at++ {
			if lit := fields[at].lit; len(line)-i >= len(lit) && string(line[i:i+len(lit)]) == lit {
				k, i = at, i+len(lit)
				break
			}
			if !fields[at].omitempty {
				break
			}
		}
		if k < 0 {
			key, j, ok := scanString(line, i)
			if !ok {
				return false
			}
			for probe := range fields {
				if at := (next + probe) % len(fields); string(key) == fields[at].name {
					k = at
					break
				}
			}
			if k < 0 {
				return false
			}
			if i = skipSpace(line, j); i == len(line) || line[i] != ':' {
				return false
			}
			i++
		}
		if seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		next = k + 1
		f := &fields[k]

		i = skipSpace(line, i)
		var v int64
		var payload []byte
		var ok bool
		switch f.kind {
		case kindInt:
			v, i, ok = scanInt(line, i, f.max, f.neg)
		case kindIPv4:
			v, i, ok = scanQuad(line, i)
		case kindBase64:
			payload, i, ok = scanBase64(line, i, arena)
		}
		if !ok {
			return false
		}
		f.set(rec, v, payload)

		i = skipSpace(line, i)
		if i == len(line) {
			return false
		}
		i++
		if line[i-1] == '}' {
			break
		}
		if line[i-1] != ',' {
			return false
		}
	}
	for k := range fields {
		if fields[k].required && seen&(1<<k) == 0 {
			return false
		}
	}
	return skipSpace(line, i) == len(line)
}

// minPiece is the smallest piece of a batch worth its own goroutine:
// 64 KiB parses in about 0.2 ms, well above the cost of handing it off.
const minPiece = 64 << 10

// ndjsonPieces is how many pieces a batch of n bytes is parsed in.
func ndjsonPieces(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minPiece))
}

// piece is one run of whole lines of a batch and what parsing it left.
type piece[T any] struct {
	data []byte
	line int // 1-based number of its first line
	off  int // its region of the record slice: [off, off+size)
	size int
	recs []T // its region, filled from the front
	fast int
	err  error
}

// parse decodes the piece's lines into its region, stopping at the
// first bad line. Each piece carves payloads from its own arena.
func (p *piece[T]) parse(sh *shape[T]) {
	var arena []byte
	line, data := p.line-1, p.data
	for len(data) > 0 {
		line++
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		var zero T
		p.recs = append(p.recs, zero)
		rec := &p.recs[len(p.recs)-1]
		if parseFlat(raw, sh.fields, rec, &arena) {
			p.fast++
			continue
		}
		if *rec, p.err = sh.slow(line, raw); p.err != nil {
			return
		}
	}
}

// parseNDJSON decodes a batch in ndjsonPieces pieces and reports how
// many lines the fast path answered (tests pin that marshalled lines
// all do).
func parseNDJSON[T any](data []byte, sh *shape[T]) ([]T, int, error) {
	return parseNDJSONIn(data, sh, ndjsonPieces(len(data)))
}

// parseNDJSONIn cuts the batch at newlines into at most pieces pieces,
// each region presized from its line count under the minLine guard,
// parses them concurrently, and closes the gaps blank lines left.
// Records, the error (the earliest bad line's) and the fast count are
// those of one sequential pass whatever pieces is.
func parseNDJSONIn[T any](data []byte, sh *shape[T], pieces int) ([]T, int, error) {
	ps := make([]piece[T], 0, pieces)
	size, line := 0, 1
	for start := 0; start < len(data); {
		end := len(data)
		if k := len(ps) + 1; k < pieces {
			end = max(start, k*len(data)/pieces)
			if i := bytes.IndexByte(data[end:], '\n'); i >= 0 {
				end += i + 1
			} else {
				end = len(data)
			}
		}
		b := data[start:end]
		nl := bytes.Count(b, []byte{'\n'})
		lines := nl
		if b[len(b)-1] != '\n' {
			lines++
		}
		n := min(lines, len(b)/sh.minLine+1)
		ps = append(ps, piece[T]{data: b, line: line, off: size, size: n})
		size += n
		line += nl
		start = end
	}
	out := make([]T, size)
	for k := range ps {
		p := &ps[k]
		p.recs = out[p.off : p.off : p.off+p.size]
	}
	if len(ps) > 1 {
		var wg sync.WaitGroup
		for k := range ps[:len(ps)-1] {
			p := &ps[k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.parse(sh)
			}()
		}
		ps[len(ps)-1].parse(sh)
		wg.Wait()
	} else if len(ps) == 1 {
		ps[0].parse(sh)
	}
	fast, n, overflow := 0, 0, false
	for k := range ps {
		p := &ps[k]
		if fast += p.fast; p.err != nil {
			return nil, fast, p.err
		}
		n += len(p.recs)
		overflow = overflow || len(p.recs) > p.size
	}
	if overflow { // a region outgrew its guard; join into a fresh slice
		out = make([]T, n)
	}
	n = 0
	for k := range ps {
		if p := &ps[k]; overflow || p.off != n {
			copy(out[n:], p.recs)
		}
		n += len(ps[k].recs)
	}
	return out[:n], fast, nil
}

// ParsePacketsNDJSON decodes a batch of PacketJSON lines.
func ParsePacketsNDJSON(data []byte) ([]Packet, error) {
	out, _, err := parseNDJSON(data, &packetShape)
	return out, err
}

func slowPacket(line int, raw []byte) (Packet, error) {
	var pj PacketJSON
	if err := decodeStrict(raw, &pj); err != nil {
		return Packet{}, fmt.Errorf("trace: ndjson line %d: %w", line, err)
	}
	src, err := ParseIPv4(pj.SrcIP)
	if err != nil {
		return Packet{}, fmt.Errorf("trace: ndjson line %d srcIP: %w", line, err)
	}
	dst, err := ParseIPv4(pj.DstIP)
	if err != nil {
		return Packet{}, fmt.Errorf("trace: ndjson line %d dstIP: %w", line, err)
	}
	return Packet{Header: Header{
		Time: pj.Time, SrcIP: src, DstIP: dst,
		SrcPort: pj.SrcPort, DstPort: pj.DstPort,
		Proto: pj.Proto, Flags: TCPFlags(pj.Flags),
		Seq: pj.Seq, Ack: pj.Ack, Len: pj.Len,
	}, Payload: pj.Payload}, nil
}

// The append encoder writes exactly the bytes json.Marshal produces
// for PacketJSON (a test holds it to that), with strconv and base64
// straight into dst.

// appendNonZero appends key and v unless v is zero (omitempty).
func appendNonZero(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// AppendPacketNDJSON appends one packet as a JSON line (with trailing
// newline) to dst — the sender-side encoder, allocation-free when dst
// has room.
func AppendPacketNDJSON(dst []byte, p *Packet) []byte {
	dst = strconv.AppendInt(append(dst, `{"time":`...), p.Time, 10)
	dst = p.SrcIP.appendTo(append(dst, `,"srcIP":"`...))
	dst = p.DstIP.appendTo(append(dst, `","dstIP":"`...))
	dst = append(dst, '"')
	dst = appendNonZero(dst, `,"srcPort":`, uint64(p.SrcPort))
	dst = appendNonZero(dst, `,"dstPort":`, uint64(p.DstPort))
	dst = appendNonZero(dst, `,"proto":`, uint64(p.Proto))
	dst = appendNonZero(dst, `,"flags":`, uint64(p.Flags))
	dst = appendNonZero(dst, `,"seq":`, uint64(p.Seq))
	dst = appendNonZero(dst, `,"ack":`, uint64(p.Ack))
	dst = strconv.AppendUint(append(dst, `,"len":`...), uint64(p.Len), 10)
	if len(p.Payload) > 0 {
		dst = base64.StdEncoding.AppendEncode(append(dst, `,"payload":"`...), p.Payload)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...)
}

// MarshalPacketsNDJSON encodes a packet batch as NDJSON.
func MarshalPacketsNDJSON(packets []Packet) []byte {
	// Lines without payload run to ~130 bytes, 184 at most; growing
	// from nil instead copies the batch five times over.
	dst := make([]byte, 0, 160*len(packets))
	for i := range packets {
		dst = AppendPacketNDJSON(dst, &packets[i])
	}
	return dst
}
