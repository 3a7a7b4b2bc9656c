package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// The on-disk format is a little-endian binary container:
//
//	magic   [4]byte "DPTR"
//	version uint16  (currently 1)
//	kind    uint16  (KindPacket; older builds also wrote 2 and 3,
//	                link and hop records, which the reader refuses)
//	count   uint64  number of records
//	records ...     packets, each with a varint-prefixed payload
//
// The format is deliberately trivial — the point of this repository is
// the privacy machinery, not a pcap replacement — but it is versioned
// and self-describing enough that the CLI tools can refuse mismatched
// inputs with a clear error.
//
// The same container, holding packets, is the binary ingest wire
// format. One decoder reads it off a byte window: a batch's window is
// its body, decoded in place; a file's window refills from its reader.
// One append encoder writes it, through a fileChunk buffer to a file,
// or into an exactly-sized batch body.

// KindPacket is the header's record kind for packets, the only kind
// written or read.
const KindPacket uint16 = 1

const (
	formatVersion uint16 = 1
	// maxPayload bounds per-packet payloads, protecting readers from
	// corrupt length prefixes.
	maxPayload = 1 << 16
)

var magic = [4]byte{'D', 'P', 'T', 'R'}

// Encoded sizes: the header and a packet's fixed fields (a varint
// payload length and the payload follow, so a packet takes at least
// packetFixed+1 bytes).
const (
	headerSize  = 16
	packetFixed = 32
	packetMin   = packetFixed + 1
)

// maxPrealloc caps slice pre-allocation from the (untrusted) header
// count where the input cannot say how many bytes follow (a file, a
// stream); see prealloc. Reads beyond it grow normally via append.
const maxPrealloc = 1 << 20

// fileChunk is the unit files are read and written in: a reader's
// window (grown once for a record longer than it, a payload near
// maxPayload), each payload arena of a file, and the writers' buffer.
const fileChunk = 64 << 10

// Errors returned by the decoders.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a DPTR file)")
	ErrBadVersion = errors.New("trace: unsupported format version")
	ErrWrongKind  = errors.New("trace: file holds a different record kind")
	// ErrTrailingData refuses a batch holding more bytes than its
	// declared records: they would otherwise be dropped without a word.
	ErrTrailingData = errors.New("trace: data after the declared records")
)

// window is what the decoders read from: the unread input is buf[off:].
// A batch's window is its whole body and has no reader; a file's
// refills from r, keeping the bytes not yet consumed.
type window struct {
	buf  []byte
	off  int
	r    io.Reader
	rerr error // r's error, once it has returned one
	// Payloads are copied out of buf into arena, so records never alias
	// the input; chunk sizes the next arena when this one runs out.
	arena []byte
	chunk int
}

func newReadWindow(r io.Reader) *window {
	return &window{buf: make([]byte, 0, fileChunk), r: r, chunk: fileChunk}
}

// need reports whether n unread bytes are in the window, refilling it
// from the reader when there is one.
func (w *window) need(n int) bool {
	return len(w.buf)-w.off >= n || w.refill(n)
}

func (w *window) refill(n int) bool {
	if w.r == nil || w.rerr != nil {
		return false
	}
	buf := w.buf
	if n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	rest := copy(buf[:cap(buf)], w.buf[w.off:])
	m, err := io.ReadAtLeast(w.r, buf[rest:cap(buf)], n-rest)
	w.buf, w.off, w.rerr = buf[:rest+m], 0, err
	return rest+m >= n
}

// short is the error for input that ends before a need is met, as
// io.ReadFull reports it: EOF on no bytes, ErrUnexpectedEOF on some.
func (w *window) short() error {
	switch {
	case w.rerr != nil && w.rerr != io.EOF && w.rerr != io.ErrUnexpectedEOF:
		return w.rerr
	case w.off == len(w.buf):
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// header consumes the 16-byte header and returns its record count.
func (w *window) header() (count uint64, err error) {
	if !w.need(len(magic)) {
		return 0, fmt.Errorf("trace: reading magic: %w", w.short())
	}
	if [4]byte(w.buf[w.off:]) != magic {
		return 0, ErrBadMagic
	}
	if !w.need(headerSize) {
		return 0, fmt.Errorf("trace: reading header: %w", w.short())
	}
	hdr := w.buf[w.off+len(magic) : w.off+headerSize]
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != formatVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if k := binary.LittleEndian.Uint16(hdr[2:4]); k != KindPacket {
		return 0, fmt.Errorf("%w: got kind %d, want %d", ErrWrongKind, k, KindPacket)
	}
	w.off += headerSize
	return binary.LittleEndian.Uint64(hdr[4:12]), nil
}

// prealloc is the capacity to reserve for count records of at least
// size bytes each: no more than the input's remaining bytes could hold,
// when they are known — a batch's are, and so are an in-memory
// reader's (its Len) — so a forged count reserves nothing the input
// does not back.
func (w *window) prealloc(count uint64, size int) int {
	n := min(count, maxPrealloc)
	left, known := len(w.buf)-w.off, w.r == nil
	if r, ok := w.r.(interface{ Len() int }); ok {
		left, known = left+r.Len(), true
	}
	if known {
		n = min(n, uint64(left/size))
	}
	return int(n)
}

// carve copies src into the payload arena, capped so that appending to
// one payload cannot overwrite the next.
func (w *window) carve(src []byte) []byte {
	if len(src) > len(w.arena) {
		w.arena = make([]byte, max(len(src), w.chunk))
	}
	p := w.arena[:len(src):len(src)]
	copy(p, src)
	w.arena = w.arena[len(src):]
	return p
}

// decodePackets is the packet decoder, for batches and files alike.
func decodePackets(w *window) ([]Packet, error) {
	count, err := w.header()
	if err != nil {
		return nil, err
	}
	reserve := w.prealloc(count, packetMin)
	packets := make([]Packet, 0, reserve)
	if w.r == nil {
		// Every payload fits in what the reserved records' minimal
		// encodings leave of the body: one arena holds the batch's.
		w.chunk = len(w.buf) - w.off - packetMin*reserve
	}
	for i := uint64(0); i < count; i++ {
		if !w.need(packetMin) {
			return nil, fmt.Errorf("trace: packet %d: %w", i, w.short())
		}
		b := w.buf[w.off:]
		plen, n := binary.Uvarint(b[packetFixed:])
		if n == 0 && w.r != nil {
			// The length may straddle the window's end.
			w.need(packetFixed + binary.MaxVarintLen64)
			b = w.buf[w.off:]
			plen, n = binary.Uvarint(b[packetFixed:])
		}
		switch {
		case n == 0:
			return nil, fmt.Errorf("trace: packet %d payload length: %w", i, w.short())
		case n < 0:
			return nil, fmt.Errorf("trace: packet %d payload length: varint overflows a 64-bit integer", i)
		case plen > maxPayload:
			return nil, fmt.Errorf("trace: packet %d payload length %d exceeds limit", i, plen)
		}
		size := packetFixed + n + int(plen)
		if !w.need(size) {
			return nil, fmt.Errorf("trace: packet %d payload: %w", i, w.short())
		}
		b = w.buf[w.off : w.off+size]
		p := Packet{Header: Header{
			Time:    int64(binary.LittleEndian.Uint64(b[0:8])),
			SrcIP:   IPv4(binary.LittleEndian.Uint32(b[8:12])),
			DstIP:   IPv4(binary.LittleEndian.Uint32(b[12:16])),
			SrcPort: binary.LittleEndian.Uint16(b[16:18]),
			DstPort: binary.LittleEndian.Uint16(b[18:20]),
			Proto:   b[20],
			Flags:   TCPFlags(b[21]),
			Seq:     binary.LittleEndian.Uint32(b[22:26]),
			Ack:     binary.LittleEndian.Uint32(b[26:30]),
			Len:     binary.LittleEndian.Uint16(b[30:32]),
		}}
		if plen > 0 {
			p.Payload = w.carve(b[packetFixed+n:])
		}
		packets = append(packets, p)
		w.off += size
	}
	return packets, nil
}

// ParsePacketsDPTR decodes a DPTR packet batch in place: no read
// buffer, one arena for all its payloads (which never alias data), and
// a refusal naming the offset of any bytes after the declared records.
func ParsePacketsDPTR(data []byte) ([]Packet, error) {
	w := window{buf: data}
	packets, err := decodePackets(&w)
	if err == nil && w.off < len(w.buf) {
		err = fmt.Errorf("%w: %d bytes at offset %d, after %d records", ErrTrailingData, len(w.buf)-w.off, w.off, len(packets))
	}
	if err != nil {
		return nil, err
	}
	return packets, nil
}

// ReadPackets reads a packet trace written by WritePackets. It stops
// at the declared count; whatever follows is left unread.
func ReadPackets(r io.Reader) ([]Packet, error) {
	return decodePackets(newReadWindow(r))
}

func appendHeader(dst []byte, kind uint16, count int) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, formatVersion)
	dst = binary.LittleEndian.AppendUint16(dst, kind)
	return binary.LittleEndian.AppendUint64(dst, uint64(count))
}

// appendPacket is the packet encoder.
func appendPacket(dst []byte, p *Packet) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Time))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.SrcIP))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.DstIP))
	dst = binary.LittleEndian.AppendUint16(dst, p.SrcPort)
	dst = binary.LittleEndian.AppendUint16(dst, p.DstPort)
	dst = append(dst, p.Proto, byte(p.Flags))
	dst = binary.LittleEndian.AppendUint32(dst, p.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, p.Ack)
	dst = binary.LittleEndian.AppendUint16(dst, p.Len)
	dst = binary.AppendUvarint(dst, uint64(len(p.Payload)))
	return append(dst, p.Payload...)
}

// MarshalPacketsDPTR encodes a packet batch as one exactly-sized DPTR
// body, byte-identical to what WritePackets writes.
func MarshalPacketsDPTR(packets []Packet) []byte {
	size := headerSize
	for i := range packets {
		n := len(packets[i].Payload)
		size += packetFixed + (bits.Len64(uint64(n)|1)+6)/7 + n
	}
	dst := appendHeader(make([]byte, 0, size), KindPacket, len(packets))
	for i := range packets {
		dst = appendPacket(dst, &packets[i])
	}
	return dst
}

// WritePackets writes a packet trace, streaming it through one
// fileChunk buffer so that writing never holds a second copy of it.
func WritePackets(w io.Writer, packets []Packet) error {
	buf := appendHeader(make([]byte, 0, fileChunk), KindPacket, len(packets))
	for i := range packets {
		buf = appendPacket(buf, &packets[i])
		if len(buf) >= fileChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}
