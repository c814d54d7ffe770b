package rete_test

import (
	"testing"

	"prodsys/internal/audit/audittest"
	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
)

// TestAuditCatchesCorruption: a beta token lost without cleanup is a
// derived-state divergence, and the repair's fresh network audits clean.
func TestAuditCatchesCorruption(t *testing.T) {
	build := func(set *rules.Set, _ *relation.DB, cs *conflict.Set, stats *metrics.Set) *rete.Network {
		return rete.New(set, cs, stats)
	}
	audittest.DetectAndRepair(t, build, rete.CorruptDerived)
}
