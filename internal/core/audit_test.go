package core_test

import (
	"testing"

	"prodsys/internal/audit/audittest"
	"prodsys/internal/core"
)

// TestAuditCatchesCorruption: a damaged Mark counter is a derived-state
// divergence, and the repair's fresh matcher audits clean.
func TestAuditCatchesCorruption(t *testing.T) {
	audittest.DetectAndRepair(t, core.New, core.CorruptDerived)
}
