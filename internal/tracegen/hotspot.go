// Package tracegen synthesizes the three datasets of the SIGCOMM 2010
// study. The real traces are proprietary (a hotspot tcpdump with
// payloads, a confidential ISP's link volumes, and a processed
// PlanetLab traceroute set), so each generator plants — with known
// ground truth — exactly the features the paper's experiments measure:
// handshake RTTs, retransmission dynamics, packet-size and port
// distributions, high-dispersion worm payloads, heavy-tailed payload
// strings, co-activated stepping-stone flows, link-volume anomalies,
// and clustered hop-count vectors. DESIGN.md §2 documents why each
// substitution preserves the evaluated behaviour.
package tracegen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"

	"dptrace/internal/trace"
)

// Well-known ports the Hotspot generator draws from; the weights mimic
// hotspot traffic dominated by web, with the ssh/mail/smb/imap
// presence the itemset-mining experiment expects.
var portWeights = []struct {
	port   uint16
	weight float64
}{
	{80, 0.42}, {443, 0.25}, {22, 0.08}, {53, 0.07}, {25, 0.05},
	{445, 0.04}, {139, 0.03}, {993, 0.03}, {8080, 0.02}, {110, 0.01},
}

// Port profiles given to client hosts so that frequent itemset mining
// finds the co-used port sets the paper reports as its top five:
// (22,80), (25,22), (443,80), (445,139), (993,22).
var portProfiles = [][]uint16{
	{22, 80},
	{25, 22},
	{443, 80},
	{445, 139},
	{993, 22},
	{80},
	{443},
	{80, 443, 22}, // noise profile: supports several pairs
}

// profileWeights orders the five planted pairs by decreasing support.
var profileWeights = []float64{0.24, 0.20, 0.17, 0.14, 0.11, 0.06, 0.05, 0.03}

// HotspotConfig parameterizes the Hotspot substitute. The zero value
// is not useful; start from DefaultHotspotConfig.
type HotspotConfig struct {
	Seed uint64

	// Sessions is the number of TCP sessions (handshake + data).
	Sessions int
	// Hosts is the client address pool size.
	Hosts int
	// Servers is the server address pool size.
	Servers int

	// LossRate is the per-data-packet probability of a downstream
	// loss, observed as a retransmission (same sequence number).
	LossRate float64

	// Worms is the number of distinct high-dispersion payloads
	// (sources and destinations both above WormDispersion).
	Worms int
	// WormDispersion is the number of distinct sources and of
	// distinct destinations each worm payload is seen with.
	WormDispersion int
	// LowDispersionPayloads is the number of frequent payloads that
	// FAIL the dispersion test (few sources), exercising the worm
	// fingerprinting filter's negative side.
	LowDispersionPayloads int

	// BackgroundStrings is the number of distinct heavy-tailed
	// payload strings planted for the Table 4 frequent-string
	// experiment; string i gets a count ∝ 1/(i+1)^1.1.
	BackgroundStrings int
	// BackgroundTotal is the total number of background-string
	// packets shared out across the strings.
	BackgroundTotal int

	// FlowReuse is the probability that a session opens a follow-up
	// TCP connection on the same 5-tuple after the previous one ends
	// (and again after that, geometrically) — persistent-connection
	// behaviour that exercises connection-id preprocessing.
	FlowReuse float64

	// StonePairs is the number of correlated stepping-stone flow
	// pairs; DecoyFlows is the number of interactive flows with
	// independent activation processes.
	StonePairs int
	DecoyFlows int
	// StoneActivations is the target number of idle-to-active
	// transitions per stone flow; the paper evaluates flows with
	// [1200, 1400] activations.
	StoneActivations int

	// Duration is the trace length in seconds.
	Duration float64
}

// DefaultHotspotConfig returns a configuration sized for experiments
// that run in seconds on a laptop (roughly 2-3·10⁵ packets) while
// keeping every planted feature at the paper's parameter values.
func DefaultHotspotConfig() HotspotConfig {
	return HotspotConfig{
		Seed:                  1,
		Sessions:              3000,
		Hosts:                 600,
		Servers:               150,
		LossRate:              0.03,
		FlowReuse:             0.2,
		Worms:                 29,
		WormDispersion:        60,
		LowDispersionPayloads: 8,
		BackgroundStrings:     300,
		BackgroundTotal:       60000,
		StonePairs:            22,
		DecoyFlows:            20,
		StoneActivations:      1300,
		Duration:              1800,
	}
}

// PayloadTruth records one planted payload string and its ground-truth
// statistics.
type PayloadTruth struct {
	Payload  string
	Count    int // number of packets carrying it
	SrcCount int // distinct source IPs
	DstCount int // distinct destination IPs
	IsWorm   bool
}

// HotspotTruth is the generator's ground truth, used by the evaluation
// harness to score private analyses without re-deriving the truth from
// raw packets.
type HotspotTruth struct {
	// Payloads lists every planted payload (worms, low-dispersion
	// decoys, background strings) sorted by decreasing count.
	Payloads []PayloadTruth
	// StonePairs lists the truly correlated flow pairs.
	StonePairs [][2]trace.FlowKey
	// DecoyFlows lists interactive flows with independent activity.
	DecoyFlows []trace.FlowKey
	// TopPortPairs lists the planted co-used port pairs in decreasing
	// support order.
	TopPortPairs [][2]uint16
	// Connections is the number of TCP connections the session
	// generator opened (>= Sessions when FlowReuse > 0).
	Connections int
}

// Hotspot generates the packet trace and its ground truth. Packets are
// returned sorted by timestamp, as a capture would be, with ties in
// the order they were generated (TestHotspotGolden pins the bytes).
func Hotspot(cfg HotspotConfig) ([]trace.Packet, *HotspotTruth) {
	if cfg.Sessions < 0 || cfg.Hosts <= 0 || cfg.Servers <= 0 {
		panic(fmt.Sprintf("tracegen: invalid hotspot config %+v", cfg))
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xDEADBEEF))
	g := &hotspotGen{cfg: cfg, rng: rng}
	g.assignProfiles()
	g.genSessions()
	g.genWorms()
	g.genBackgroundStrings()
	g.genSteppingStones()
	permute(g.packets, trace.TimeOrder(g.packets))
	truth := &HotspotTruth{
		Payloads:    g.payloadTruth(),
		StonePairs:  g.stonePairs,
		DecoyFlows:  g.decoyFlows,
		Connections: g.connections,
		TopPortPairs: [][2]uint16{
			{22, 80}, {25, 22}, {443, 80}, {445, 139}, {993, 22},
		},
	}
	return g.packets, truth
}

// permute moves ps[order[i]] to ps[i] for every i, in place, walking
// each cycle of the permutation once: a gather into a second slice
// would hold two copies of a full-volume trace at once. It consumes
// order, marking placed positions with -1.
func permute(ps []trace.Packet, order []int32) {
	for i := range order {
		if order[i] < 0 {
			continue
		}
		held := ps[i]
		j := i
		for {
			k := int(order[j])
			order[j] = -1
			if k == i {
				ps[j] = held
				break
			}
			ps[j] = ps[k]
			j = k
		}
	}
}

type payloadStats struct {
	count  int
	srcs   map[trace.IPv4]struct{}
	dsts   map[trace.IPv4]struct{}
	isWorm bool
}

type hotspotGen struct {
	cfg     HotspotConfig
	rng     *rand.Rand
	packets []trace.Packet

	hostProfiles []int // profile index per client host
	payloads     map[string]*payloadStats
	stonePairs   [][2]trace.FlowKey
	decoyFlows   []trace.FlowKey
	connections  int // TCP connections emitted by genSessions
}

func (g *hotspotGen) clientIP(h int) trace.IPv4 {
	return trace.MakeIPv4(10, 1, byte(h/256), byte(h%256))
}

func (g *hotspotGen) serverIP(s int) trace.IPv4 {
	return trace.MakeIPv4(172, 16, byte(s/256), byte(s%256))
}

func (g *hotspotGen) assignProfiles() {
	g.hostProfiles = make([]int, g.cfg.Hosts)
	for h := range g.hostProfiles {
		u := g.rng.Float64()
		acc := 0.0
		for i, w := range profileWeights {
			acc += w
			if u < acc {
				g.hostProfiles[h] = i
				break
			}
		}
	}
	g.payloads = make(map[string]*payloadStats)
}

// usec converts seconds to the trace's microsecond timestamps.
func usec(s float64) int64 { return int64(math.Round(s * 1e6)) }

// sampleRTT draws a handshake RTT in seconds: a bimodal mixture of
// nearby (LAN/regional ~5-50 ms) and far (transcontinental ~80-300 ms)
// servers, as hotspot traffic exhibits.
func (g *hotspotGen) sampleRTT() float64 {
	if g.rng.Float64() < 0.6 {
		return 0.005 + g.rng.ExpFloat64()*0.015
	}
	return 0.080 + g.rng.ExpFloat64()*0.060
}

// sampleRTO draws a retransmission delay in seconds, concentrated in
// the 10-250 ms range Figure 1 plots at 1 ms resolution.
func (g *hotspotGen) sampleRTO() float64 {
	v := 0.010 + g.rng.ExpFloat64()*0.050
	if v > 0.249 {
		v = 0.249
	}
	return v
}

// pickServerPort draws from the host's port profile usually, falling
// back to the global port mix; this both plants the itemset pairs and
// keeps the overall port CDF heavy on web traffic.
func (g *hotspotGen) pickServerPort(host int) uint16 {
	profile := portProfiles[g.hostProfiles[host]]
	// Hosts stick to their profile almost always: real clients have
	// stable service habits, and the §4.3 itemset experiment depends
	// on baskets that aren't polluted by one-off ports (a stray port
	// makes the basket support extra candidate pairs, diluting its
	// partitioned support across them).
	if g.rng.Float64() < 0.95 {
		return profile[g.rng.IntN(len(profile))]
	}
	u := g.rng.Float64()
	acc := 0.0
	for _, pw := range portWeights {
		acc += pw.weight
		if u < acc {
			return pw.port
		}
	}
	return uint16(1024 + g.rng.IntN(60000))
}

// dataLen draws a packet length with the paper's signature spikes at
// 40 bytes (pure ACKs) and 1492 bytes (802.3 MTU).
func (g *hotspotGen) dataLen() uint16 {
	u := g.rng.Float64()
	switch {
	case u < 0.30:
		return 40
	case u < 0.65:
		return 1492
	default:
		return uint16(80 + g.rng.IntN(1380))
	}
}

func (g *hotspotGen) emit(p trace.Packet) {
	g.packets = append(g.packets, p)
	if len(p.Payload) > 0 {
		st, ok := g.payloads[string(p.Payload)]
		if !ok {
			st = &payloadStats{srcs: map[trace.IPv4]struct{}{}, dsts: map[trace.IPv4]struct{}{}}
			g.payloads[string(p.Payload)] = st
		}
		st.count++
		st.srcs[p.SrcIP] = struct{}{}
		st.dsts[p.DstIP] = struct{}{}
	}
}

// genSessions produces TCP sessions: handshake (for Fig 3a RTTs), data
// packets with losses and retransmissions (Fig 1 time diffs, Fig 3b
// loss rates), and the length/port mix of Fig 2. With probability
// FlowReuse a session opens further connections on the same 5-tuple
// (persistent-connection behaviour), which connection-id
// preprocessing must tease apart.
func (g *hotspotGen) genSessions() {
	for s := 0; s < g.cfg.Sessions; s++ {
		host := g.rng.IntN(g.cfg.Hosts)
		server := g.rng.IntN(g.cfg.Servers)
		src := g.clientIP(host)
		dst := g.serverIP(server)
		sport := uint16(1024 + g.rng.IntN(60000))
		dport := g.pickServerPort(host)
		start := g.rng.Float64() * g.cfg.Duration
		// Web sessions are usually preceded by a DNS lookup — the
		// service dependency the communication-rule analysis (Kandula
		// et al., reproduced in internal/analyses/commrules) mines.
		if (dport == 80 || dport == 443) && g.rng.Float64() < 0.8 {
			resolver := trace.MakeIPv4(10, 0, 0, 53)
			qport := uint16(1024 + g.rng.IntN(60000))
			g.emit(trace.Packet{Header: trace.Header{Time: usec(start - 0.030), SrcIP: src, DstIP: resolver,
				SrcPort: qport, DstPort: 53, Proto: trace.ProtoUDP, Len: 64}})
			g.emit(trace.Packet{Header: trace.Header{Time: usec(start - 0.010), SrcIP: resolver, DstIP: src,
				SrcPort: 53, DstPort: qport, Proto: trace.ProtoUDP, Len: 128}})
		}
		for {
			end := g.genConnection(src, dst, sport, dport, start)
			g.connections++
			if g.rng.Float64() >= g.cfg.FlowReuse || end >= g.cfg.Duration {
				break
			}
			// Idle gap, then a fresh handshake on the same 5-tuple.
			start = end + 0.1 + g.rng.ExpFloat64()*2
			if start >= g.cfg.Duration {
				break
			}
		}
	}
}

// genConnection emits one TCP connection (handshake plus data) and
// returns the time of its last packet in seconds.
func (g *hotspotGen) genConnection(src, dst trace.IPv4, sport, dport uint16, start float64) float64 {
	rtt := g.sampleRTT()
	isn := g.rng.Uint32()

	g.emit(trace.Packet{Header: trace.Header{Time: usec(start), SrcIP: src, DstIP: dst,
		SrcPort: sport, DstPort: dport, Proto: trace.ProtoTCP,
		Flags: trace.FlagSYN, Seq: isn, Len: 40}})
	serverISN := g.rng.Uint32()
	g.emit(trace.Packet{Header: trace.Header{Time: usec(start + rtt), SrcIP: dst, DstIP: src,
		SrcPort: dport, DstPort: sport, Proto: trace.ProtoTCP,
		Flags: trace.FlagSYN | trace.FlagACK, Seq: serverISN, Ack: isn + 1, Len: 40}})
	g.emit(trace.Packet{Header: trace.Header{Time: usec(start + rtt*1.5), SrcIP: src, DstIP: dst,
		SrcPort: sport, DstPort: dport, Proto: trace.ProtoTCP,
		Flags: trace.FlagACK, Seq: isn + 1, Ack: serverISN + 1, Len: 40}})

	// Data packets; a heavy-tailed count so some flows exceed the
	// >10-packet threshold Fig 3b applies.
	n := 3 + int(g.rng.ExpFloat64()*12)
	t := start + rtt*1.5
	seq := isn + 1
	for i := 0; i < n; i++ {
		next := t + 0.002 + g.rng.ExpFloat64()*0.020
		if next > g.cfg.Duration {
			break
		}
		t = next
		ln := g.dataLen()
		pkt := trace.Packet{Header: trace.Header{Time: usec(t), SrcIP: src, DstIP: dst,
			SrcPort: sport, DstPort: dport, Proto: trace.ProtoTCP,
			Flags: trace.FlagACK | trace.FlagPSH, Seq: seq, Ack: serverISN + 1, Len: ln}}
		g.emit(pkt)
		if g.rng.Float64() < g.cfg.LossRate {
			// Downstream loss: the monitor sees a retransmission
			// with the same sequence number after an RTO.
			retx := pkt
			retx.Time = usec(t + g.sampleRTO())
			g.emit(retx)
		}
		seq += uint32(ln)
	}
	return t
}

// wormString builds a distinct, fixed-length payload for worm w.
func wormString(w int) []byte {
	return []byte(fmt.Sprintf("WORM%04d:xBADxC0DEx%04d", w, w*7919%9973))
}

// lowDispString builds a frequent-but-concentrated payload.
func lowDispString(i int) []byte {
	return []byte(fmt.Sprintf("BULK%04d:keepalive-%04d", i, i*31%997))
}

// backgroundString builds the i-th heavy-tailed background payload.
func backgroundString(i int) []byte {
	return []byte(fmt.Sprintf("BG%06d:%08x", i, uint32(i)*2654435761))
}

// genWorms plants Worms high-dispersion payloads (≥ WormDispersion
// distinct sources AND destinations) and LowDispersionPayloads decoys
// that are frequent but concentrated on few hosts.
func (g *hotspotGen) genWorms() {
	for w := 0; w < g.cfg.Worms; w++ {
		payload := wormString(w)
		// Worm w's packet count decays gently with w, so the worms
		// straddle the noise-dependent frequency thresholds: at strong
		// privacy the rarer worms vanish from the frequent-string
		// search first, reproducing the paper's miss progression
		// ("payloads with low overall presence but above average
		// dispersal").
		pkts := 104 + (g.cfg.Worms-1-w)*3
		if pkts < g.cfg.WormDispersion {
			pkts = g.cfg.WormDispersion
		}
		for i := 0; i < pkts; i++ {
			// Cycle through dispersion-many sources and destinations;
			// the rotating offset makes each block of WormDispersion
			// packets cover every source AND every destination, so both
			// distinct counts hit the threshold within one block.
			srcIdx := i % g.cfg.WormDispersion
			dstIdx := (i + i/g.cfg.WormDispersion) % g.cfg.WormDispersion
			src := trace.MakeIPv4(10, 9, byte(srcIdx), byte(w))
			dst := trace.MakeIPv4(192, 168, byte(dstIdx), byte(w))
			t := g.rng.Float64() * g.cfg.Duration
			g.emit(trace.Packet{Header: trace.Header{Time: usec(t), SrcIP: src, DstIP: dst,
				SrcPort: uint16(1024 + g.rng.IntN(60000)), DstPort: 445,
				Proto: trace.ProtoTCP, Flags: trace.FlagACK | trace.FlagPSH,
				Seq: g.rng.Uint32(), Len: uint16(60 + len(payload))}, Payload: payload})
		}
		if st, ok := g.payloads[string(payload)]; ok {
			st.isWorm = true
		}
	}
	for d := 0; d < g.cfg.LowDispersionPayloads; d++ {
		payload := lowDispString(d)
		src := g.clientIP(d % g.cfg.Hosts)
		dst := g.serverIP(d % g.cfg.Servers)
		pkts := g.cfg.WormDispersion * 4
		for i := 0; i < pkts; i++ {
			t := g.rng.Float64() * g.cfg.Duration
			g.emit(trace.Packet{Header: trace.Header{Time: usec(t), SrcIP: src, DstIP: dst,
				SrcPort: 4000 + uint16(d), DstPort: 80,
				Proto: trace.ProtoTCP, Flags: trace.FlagACK | trace.FlagPSH,
				Seq: g.rng.Uint32(), Len: uint16(60 + len(payload))}, Payload: payload})
		}
	}
}

// genBackgroundStrings spreads BackgroundTotal packets over
// BackgroundStrings payloads with a Zipf(1.1) frequency law — the
// heavy-hitter population Table 4's top-10 search runs against.
func (g *hotspotGen) genBackgroundStrings() {
	if g.cfg.BackgroundStrings == 0 || g.cfg.BackgroundTotal == 0 {
		return
	}
	weights := make([]float64, g.cfg.BackgroundStrings)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		total += weights[i]
	}
	// Each string circulates within a small community of hosts and
	// servers, as real repeated payloads do (a popular resource is
	// fetched by many clients, but one specific payload string comes
	// from few origins). Keeping the dispersion low ensures only the
	// planted worms pass the fingerprinting dispersion filter.
	const srcWindow, dstWindow = 12, 8
	for i := range weights {
		count := int(math.Round(weights[i] / total * float64(g.cfg.BackgroundTotal)))
		payload := backgroundString(i)
		srcBase := (i * 37) % g.cfg.Hosts
		dstBase := (i * 17) % g.cfg.Servers
		for j := 0; j < count; j++ {
			host := (srcBase + g.rng.IntN(srcWindow)) % g.cfg.Hosts
			server := (dstBase + g.rng.IntN(dstWindow)) % g.cfg.Servers
			t := g.rng.Float64() * g.cfg.Duration
			// Payload strings ride on the host's usual services; a
			// fixed port here would add that port to every host's
			// basket and poison the itemset experiment.
			g.emit(trace.Packet{Header: trace.Header{Time: usec(t),
				SrcIP: g.clientIP(host), DstIP: g.serverIP(server),
				SrcPort: uint16(1024 + g.rng.IntN(60000)), DstPort: g.pickServerPort(host),
				Proto: trace.ProtoTCP, Flags: trace.FlagACK | trace.FlagPSH,
				Seq: g.rng.Uint32(), Len: uint16(60 + len(payload))}, Payload: payload})
		}
	}
}

// genSteppingStones emits StonePairs correlated interactive flow pairs
// plus DecoyFlows independent ones. A stone pair shares activity
// epochs: flow A goes idle→active at t, flow B within the paper's
// δ=40 ms window. Epochs are separated by more than T_idle=0.5 s so
// each epoch is one idle-to-active transition.
func (g *hotspotGen) genSteppingStones() {
	const tIdle = 0.5
	makeFlow := func(id int, sport, dport uint16) trace.FlowKey {
		return trace.FlowKey{
			SrcIP:   trace.MakeIPv4(10, 5, byte(id/256), byte(id%256)),
			DstIP:   trace.MakeIPv4(172, 20, byte(id%256), byte(id/256)),
			SrcPort: sport, DstPort: dport, Proto: trace.ProtoTCP,
		}
	}
	emitBurst := func(f trace.FlowKey, t float64) {
		n := 1 + g.rng.IntN(3)
		for i := 0; i < n; i++ {
			g.emit(trace.Packet{Header: trace.Header{Time: usec(t + float64(i)*0.005),
				SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort,
				DstPort: f.DstPort, Proto: f.Proto,
				Flags: trace.FlagACK | trace.FlagPSH,
				Seq:   g.rng.Uint32(), Len: 92}})
		}
	}
	// Mean epoch gap chosen so StoneActivations epochs fit the trace.
	gap := g.cfg.Duration / float64(g.cfg.StoneActivations+1)
	if gap < tIdle+0.05 {
		gap = tIdle + 0.05
	}
	for s := 0; s < g.cfg.StonePairs; s++ {
		fa := makeFlow(2*s, 22, 22)
		fb := makeFlow(2*s+1, 3022, 22)
		g.stonePairs = append(g.stonePairs, [2]trace.FlowKey{fa, fb})
		t := g.rng.Float64() * gap
		for t < g.cfg.Duration {
			emitBurst(fa, t)
			// Correlated activation within δ=40 ms, in order. Keystroke
			// forwarding lags are a few ms, so most co-activations land
			// in the same δ bin (the paper's noise-free correlations sit
			// near 0.8, not 1.0, for the same reason).
			emitBurst(fb, t+0.002+g.rng.Float64()*0.016)
			t += tIdle + 0.05 + g.rng.ExpFloat64()*(gap-tIdle)
		}
	}
	for d := 0; d < g.cfg.DecoyFlows; d++ {
		f := makeFlow(1000+d, 22, 22)
		g.decoyFlows = append(g.decoyFlows, f)
		t := g.rng.Float64() * gap
		for t < g.cfg.Duration {
			emitBurst(f, t)
			t += tIdle + 0.05 + g.rng.ExpFloat64()*(gap-tIdle)
		}
	}
}

func (g *hotspotGen) payloadTruth() []PayloadTruth {
	out := make([]PayloadTruth, 0, len(g.payloads))
	for s, st := range g.payloads {
		out = append(out, PayloadTruth{
			Payload:  s,
			Count:    st.count,
			SrcCount: len(st.srcs),
			DstCount: len(st.dsts),
			IsWorm:   st.isWorm,
		})
	}
	slices.SortFunc(out, func(a, b PayloadTruth) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.Payload, b.Payload)
	})
	return out
}
