package match

import "fmt"

// Divergence classes: which derived structure disagrees with the ground
// truth recomputed from working memory.
const (
	// DivConflictMissing: a satisfied, unfired instantiation is absent
	// from the conflict set.
	DivConflictMissing = "conflict-missing"
	// DivConflictPhantom: the conflict set holds an instantiation the WM
	// no longer supports.
	DivConflictPhantom = "conflict-phantom"
	// DivMarkCounter: a matching pattern's per-RCE support (the Mark
	// counter of §4.2.2) disagrees with the supporting tuples in WM.
	DivMarkCounter = "mark-counter"
	// DivPatternMissing: a matching pattern the WM implies is absent from
	// its COND relation.
	DivPatternMissing = "pattern-missing"
	// DivPatternPhantom: a COND relation holds a matching pattern with no
	// supporting WM tuples.
	DivPatternPhantom = "pattern-phantom"
	// DivTokenMissing: a partial match implied by the WM is absent from a
	// Rete beta memory, negative node, or production node.
	DivTokenMissing = "token-missing"
	// DivTokenPhantom: a Rete token store holds a partial match the WM no
	// longer supports.
	DivTokenPhantom = "token-phantom"
	// DivAlphaMissing / DivAlphaPhantom: a Rete alpha memory disagrees
	// with the WM tuples passing its variable-free tests.
	DivAlphaMissing = "alpha-missing"
	DivAlphaPhantom = "alpha-phantom"
	// DivMarkMissing: a Basic Locking tuple marker required by a live
	// instantiation is gone (a future update would be silently dropped).
	DivMarkMissing = "marker-missing"
	// DivIndexMissing / DivIndexPhantom: the predicate index disagrees
	// with the rule set's condition elements.
	DivIndexMissing = "index-missing"
	DivIndexPhantom = "index-phantom"
)

// Divergence is one disagreement between a matcher's derived state and
// the ground truth recomputed from the base WM relations.
type Divergence struct {
	// Class is one of the Div* constants.
	Class string
	// Rule names the affected rule; empty when the divergence is not
	// attributable to one rule (shared alpha memories), which forces a
	// full rebuild on repair.
	Rule string
	// CE is the condition element index, -1 when rule- or set-level.
	CE int
	// Key identifies the diverging entry (instantiation key, pattern key,
	// token signature, tuple reference).
	Key string
	// Expected and Actual describe both sides of the disagreement.
	Expected string
	Actual   string
}

// String renders the divergence for traces and error output.
func (d Divergence) String() string {
	where := d.Rule
	if where == "" {
		where = "-"
	}
	return fmt.Sprintf("%s %s %s: expected %s, actual %s", d.Class, where, d.Key, d.Expected, d.Actual)
}
