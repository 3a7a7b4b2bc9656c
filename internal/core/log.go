package core

import "dptrace/internal/noise"

// This file is the storage under a live dataset: Log, an append-only
// sequence of records held in fixed-capacity segments, and LogView, an
// immutable window of one.
//
// Appending never moves a record the log already holds. Each segment
// is allocated full-length when the first record lands in it, and
// records are only ever written above the log's live length, so a
// view — the segment list's header plus two positions — taken while no
// Append runs stays valid, and its records unchanged, however much the
// log grows afterwards. The log itself is not synchronised: its owner
// serialises Appends against each other and against taking a view (a
// server does both under one RWMutex, Append on the write side, View
// on the read side), and after that a view needs no lock at all.
//
// A Queryable reads a view through the lazy-source hook a Partition
// part uses (source below). Its feed hands every sink exactly the
// chunk sequence one contiguous slice of the same records would: the
// same chunkSize cuts at the same positions, so quantile blocks, every
// noise draw and every ε-charge are those of the slice. A chunk inside
// one segment goes down as a sub-slice of it; one that straddles a
// segment boundary is assembled in the scanning worker's scratch
// buffer. A view inside one segment needs neither and becomes an
// ordinary slice-backed Queryable.

// logSegment is a Log's segment capacity in records: 2^16 packets are
// 4 MiB, so a 1.66 M-packet dataset is 26 segments and a snapshot's
// segment list is a few hundred bytes of headers.
const logSegment = 1 << 16

// A segment must be a whole number of chunks, so that a scan from a
// segment boundary never straddles one: this fails to compile when
// logSegment is not a multiple of chunkSize.
var _ [0]struct{} = [logSegment % chunkSize]struct{}{}

// Log is an append-only record sequence in fixed-capacity segments.
// The zero value is not usable; construct one with NewLog.
type Log[T any] struct {
	segs [][]T // every one len(seg) long
	seg  int   // segment capacity
	n    int   // live records
}

// NewLog returns a log holding a copy of recs.
func NewLog[T any](recs []T) *Log[T] { return newLog(logSegment, recs) }

// newLog is NewLog with a given segment capacity (tests use small
// ones, so a few hundred records cross many boundaries).
func newLog[T any](seg int, recs []T) *Log[T] {
	l := &Log[T]{seg: seg}
	l.Append(recs)
	return l
}

// Append copies recs onto the end of the log. It never writes below
// the live length, so it may run while views taken earlier are read.
func (l *Log[T]) Append(recs []T) {
	for len(recs) > 0 {
		if l.n == len(l.segs)*l.seg {
			l.segs = append(l.segs, make([]T, l.seg))
		}
		k := copy(l.segs[len(l.segs)-1][l.n%l.seg:], recs)
		recs = recs[k:]
		l.n += k
	}
}

// Len returns the number of records in the log.
func (l *Log[T]) Len() int { return l.n }

// View returns the log's current records as an immutable view.
func (l *Log[T]) View() LogView[T] { return LogView[T]{segs: l.segs, seg: l.seg, hi: l.n} }

// LogView is records [lo, hi) of a Log as it stood when the view was
// taken. Later Appends do not change it.
type LogView[T any] struct {
	segs   [][]T
	seg    int
	lo, hi int // log positions
}

// Len returns the number of records in the view.
func (v LogView[T]) Len() int { return v.hi - v.lo }

// Slice returns records [lo, hi) of the view. It panics when the
// bounds are out of range, as slicing a slice would.
func (v LogView[T]) Slice(lo, hi int) LogView[T] {
	if lo < 0 || lo > hi || hi > v.Len() {
		panic("core: LogView.Slice bounds out of range")
	}
	v.lo, v.hi = v.lo+lo, v.lo+hi
	return v
}

// contiguous returns the view's records as one capacity-clipped
// sub-slice of a segment, or false when they straddle segments.
func (v LogView[T]) contiguous() ([]T, bool) {
	if v.lo == v.hi {
		return []T{}, true
	}
	seg, at := v.lo/v.seg, v.lo%v.seg
	if (v.hi-1)/v.seg != seg {
		return nil, false
	}
	end := at + v.Len()
	return v.segs[seg][at:end:end], true
}

// copyTo fills dst with the records from log position at on.
func (v LogView[T]) copyTo(dst []T, at int) []T {
	for k := 0; k < len(dst); {
		k += copy(dst[k:], v.segs[(at+k)/v.seg][(at+k)%v.seg:])
	}
	return dst
}

// The view is a lazy source (keyed.go) of the Queryables it backs
// when its records straddle segments.

func (v LogView[T]) size() int { return v.Len() }

// feed is the view's Stream.feed: view records [lo, hi) cut into the
// chunks push cuts a slice into, polling the context between chunks.
func (v LogView[T]) feed(r *scanRun, lo, hi int, down sink[T]) {
	var scratch []T // this worker's, for chunks that straddle a boundary
	for lo, hi = v.lo+lo, v.lo+hi; lo < hi && !r.cn.poll(); lo += chunkSize {
		n := min(chunkSize, hi-lo)
		if seg, at := lo/v.seg, lo%v.seg; at+n <= v.seg {
			down.acceptChunk(v.segs[seg][at : at+n : at+n])
			continue
		}
		if scratch == nil {
			scratch = make([]T, chunkSize)
		}
		down.acceptChunk(v.copyTo(scratch[:n], lo))
	}
}

// records returns the view's records as one slice, copying them out of
// their segments when they straddle a boundary.
func (v LogView[T]) records(*canceler) ([]T, bool) {
	if recs, ok := v.contiguous(); ok {
		return recs, true
	}
	return v.copyTo(make([]T, v.Len()), v.lo), true
}

// NewQueryableForView is NewQueryableFor over a view of a Log: the
// Queryable's records are the view's, read in place.
func NewQueryableForView[T any](v LogView[T], agent Agent, src noise.Source) *Queryable[T] {
	recs, ok := v.contiguous()
	q := NewQueryableFor(recs, agent, src)
	if !ok {
		q.lazy = &lazySource[T]{v}
	}
	return q
}
