package match

import "fmt"

// Divergence classes: which side of the audit's comparison lacks an
// entry. The audit compares the live matcher with a twin built from
// scratch over the same working memory.
const (
	// DivConflictMissing: an eligible instantiation the twin derives is
	// absent from the live conflict set.
	DivConflictMissing = "conflict-missing"
	// DivConflictPhantom: the live conflict set holds an eligible
	// instantiation the twin does not derive.
	DivConflictPhantom = "conflict-phantom"
	// DivDerivedMissing: a line of the twin's DumpDerived listing — a
	// matching pattern, a token, an alpha-memory entry, a marker, an
	// index entry — is absent from the live matcher's (or listed fewer
	// times).
	DivDerivedMissing = "derived-missing"
	// DivDerivedPhantom: the live matcher's listing holds a line the
	// twin's lacks (or lists it more times).
	DivDerivedPhantom = "derived-phantom"
)

// Divergence is one disagreement between the live matcher and its
// from-scratch twin.
type Divergence struct {
	// Class is one of the Div* constants.
	Class string
	// Rule names the affected rule; empty for a structure shared across
	// rules (a Rete alpha memory).
	Rule string
	// Key identifies the diverging entry: an instantiation key or a
	// DumpDerived line.
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
