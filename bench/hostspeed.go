package main

import "time"

// The host this benchmark runs on is a few cores of a shared machine,
// and its speed moves by 10–25 % and stays there for minutes to hours:
// every metric of every section reads slower or faster together. No run
// of 40 s can average that away, and a set of ten runs that straddles
// such a step has the step as the quartile distance of every timing at
// once (it happened in two of nine sets while this was written; see
// README.md, "Host speed"). So a run also measures the host: between every two
// slices, and after every part's set-up, it times one repetition of a
// fixed kernel, and the run's host speed is the kernel's reference time
// over the mean of those repetitions. Every end-to-end time is reported
// multiplied by that speed (a throughput divided by it): the time the
// same work takes on a host at reference speed. The raw values are
// printed beside them as raw.*, and the speed as host.speed.
//
// What this corrects is what the kernel shares with the measured work:
// clock frequency, a sibling thread's or a neighbour's pressure on the
// core and the caches. What it leaves in is how much more a loopback
// round trip (vCPU wake-ups) moves with the host than a scan does.

const (
	// calWords is the kernel's working set in 8-byte words: 4 MiB, past
	// the private caches.
	calWords = 1 << 19
	// calMemSteps is the number of dependent random read-modify-writes of
	// one repetition, calALUSteps the length of its register-only chain.
	calMemSteps = 50_000
	calALUSteps = 2_000_000
	// calRefMs is one repetition's time on the builder's machine in its
	// usual regime: a run there has host speed ≈ 1, and its reported
	// times are its measured ones.
	calRefMs = 9.0
)

// hostMeter times the calibration kernel.
type hostMeter struct {
	buf   []uint64
	state uint64
	reps  []float64 // ms per repetition
}

func newHostMeter() *hostMeter {
	m := &hostMeter{buf: make([]uint64, calWords), state: 0x9E3779B97F4A7C15}
	m.kernel() // touch every page before the first timed repetition
	return m
}

// kernel is one repetition, in two halves of about equal time. The
// memory half: a chain of xorshift-addressed read-modify-writes over the
// buffer — each address depends on the last value read, and the other
// parts' slices have evicted the buffer since the last repetition, so
// the chain runs at the latency of the memory it misses into — then one
// sequential multiply-add pass over the whole buffer. The register half:
// a dependent xorshift chain that touches no memory. Neither alone
// tracks the host (the register half barely moves when a neighbour
// presses on the caches, the memory half overshoots); their sum did, on
// every workload (README.md, "Host speed"). The kernel allocates nothing and
// its work does not depend on its state.
func (m *hostMeter) kernel() {
	x, buf := m.state, m.buf
	for i := 0; i < calMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calWords - 1)
		buf[j] += x
		x += buf[j]
	}
	var sum uint64
	for _, v := range buf {
		sum = sum*0x100000001B3 + v
	}
	x ^= sum
	for i := 0; i < calALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	m.state = x | 1
}

// rep times one repetition.
func (m *hostMeter) rep() {
	t0 := time.Now()
	m.kernel()
	m.reps = append(m.reps, float64(time.Since(t0))/float64(time.Millisecond))
}

// speed is the run's host speed: above 1 on a host faster than the
// reference, below on a slower one.
func (m *hostMeter) speed() float64 {
	return calRefMs / overSlices(m.reps)
}
