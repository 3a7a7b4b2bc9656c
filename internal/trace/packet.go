// Package trace defines the record types that the paper's three
// datasets consist of — packets (Hotspot), de-aggregated link samples
// (IspTraffic), and hop-count observations (IPscatter) — together with
// a compact binary on-disk format for them.
//
// Records are plain values: the privacy machinery lives entirely in
// internal/core, which wraps slices of these records, so the types here
// deliberately know nothing about differential privacy.
package trace

import (
	"fmt"
	"net/netip"
	"strconv"
)

// IPv4 is an IPv4 address as a big-endian 32-bit integer. Using a
// fixed-size integer keeps records comparable (usable as map keys and
// PINQ grouping keys) and cheap to serialize.
type IPv4 uint32

// MakeIPv4 builds an address from its four octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders dotted-quad form. It is called once per record by the
// source-keyed sketch queries, so it formats into a stack buffer and
// allocates only the result.
func (ip IPv4) String() string {
	var buf [15]byte // len("255.255.255.255")
	b := strconv.AppendUint(buf[:0], uint64(ip>>24), 10)
	for shift := 16; shift >= 0; shift -= 8 {
		b = append(b, '.')
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
	}
	return string(b)
}

// appendTo appends the dotted-quad form to b, for the NDJSON encoder.
// String keeps its own copy of the loop: routed through this call it
// measured ~5 % slower, and distinctsrc pays it per record.
func (ip IPv4) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(ip>>24), 10)
	for shift := 16; shift >= 0; shift -= 8 {
		b = append(b, '.')
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
	}
	return b
}

// Addr converts to a netip.Addr for interoperability with the standard
// library's address handling.
func (ip IPv4) Addr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
}

// Protocol numbers, per IANA.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoICMP = 1
)

// TCPFlags is the TCP flag byte; only the bits the analyses consult
// are named.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// Packet is one record of a packet-level trace: the Hotspot dataset's
// <timestamp, packet> rows. Timestamps are microseconds from the start
// of the trace; integral microseconds keep every analysis deterministic
// and serialization exact.
type Packet struct {
	Time    int64 // microseconds since trace start
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Flags   TCPFlags
	Seq     uint32 // TCP sequence number
	Ack     uint32 // TCP acknowledgment number
	Len     uint16 // total packet length in bytes
	Payload []byte // application payload (may be nil)
}

// FlowKey is the standard 5-tuple the paper's flow-level analyses key
// on.
type FlowKey struct {
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Flow returns the packet's 5-tuple.
func (p *Packet) Flow() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the 5-tuple of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// String renders "src:port > dst:port/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}

// IsSYN reports a pure connection-request segment (SYN without ACK).
func (p *Packet) IsSYN() bool {
	return p.Proto == ProtoTCP && p.Flags.Has(FlagSYN) && !p.Flags.Has(FlagACK)
}

// IsSYNACK reports the second handshake segment.
func (p *Packet) IsSYNACK() bool {
	return p.Proto == ProtoTCP && p.Flags.Has(FlagSYN|FlagACK)
}

// LinkSample is one record of the de-aggregated IspTraffic dataset:
// a synthetic 1500-byte packet observed on a link in a time bin. The
// paper's ISP provided 15-minute aggregate volumes which it
// de-aggregated into such records; we generate them directly.
type LinkSample struct {
	Link int32 // link identifier, 0-based
	Bin  int32 // 15-minute time bin, 0-based
}

// HopRecord is one record of the IPscatter dataset: the TTL-derived
// hop distance from one IP address to one monitor.
type HopRecord struct {
	Monitor int32
	IP      IPv4
	Hops    int32
}
