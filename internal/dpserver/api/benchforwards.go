package api

import "dptrace/internal/trace"

// A forward kept ONLY because the frozen bench/ directory calls this
// spelling; check.sh fails any other caller. Delete this file with the
// next `benchmark` PR, when bench/ moves to MatchHeader.

// Match reports whether p passes the filter.
//
// Deprecated: use MatchHeader.
func (f *Filter) Match(p *trace.Packet) bool { return f.MatchHeader(&p.Header) }
