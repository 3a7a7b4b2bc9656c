package ledger

import "fmt"

// Spellings kept ONLY because the frozen bench/ directory still uses
// them; check.sh fails any other caller. Delete this file, Options.Fsync
// and the auditCap argument of Replay and Diff with the next `benchmark`
// PR, when bench/ stops passing them.

// FsyncPolicy names the ledger's durability mode. There is one: every
// Commit fsyncs before anything the committed records back is released.
//
// Deprecated: leave Options.Fsync unset.
type FsyncPolicy string

// FsyncAlways is the one value Open accepts besides "".
//
// Deprecated: leave Options.Fsync unset.
const FsyncAlways FsyncPolicy = "always"

// checkAuditCap refuses any audit bound but AuditCap, which 0 names.
func checkAuditCap(auditCap int) error {
	if auditCap != 0 {
		return fmt.Errorf("ledger: audit cap %d is not supported: the trail keeps the newest %d entries", auditCap, AuditCap)
	}
	return nil
}
