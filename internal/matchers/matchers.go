// Package matchers is the one table of the product's matching
// algorithms: the name each is selected by and its constructor. Every
// caller that builds a matcher by name — the public Options, the
// experiment harness, the conformance and crosscheck suites — goes
// through New, so a matcher registered here is reachable, and tested,
// everywhere at once. requery, marker and ptree are three filters of one
// filter-then-verify matcher, internal/recheck; they keep their names
// because the experiments, the crosscheck suites and the benchmark sweep
// select them by name.
package matchers

import (
	"errors"
	"fmt"

	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/recheck"
	"prodsys/internal/relation"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
)

// ErrUnknown marks a name not in Names().
var ErrUnknown = errors.New("unknown matcher")

var table = []struct {
	name  string
	build func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) match.Matcher
}{
	{"rete", func(set *rules.Set, _ *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return rete.New(set, cs, stats)
	}},
	{"requery", func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return recheck.NewRequery(set, db, cs, stats)
	}},
	{"core", func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return core.New(set, db, cs, stats)
	}},
	{"marker", func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return recheck.NewMarker(set, db, cs, stats)
	}},
	{"ptree", func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return recheck.NewPTree(set, db, cs, stats)
	}},
}

// Names lists every matcher name, in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// New builds the named matcher over the rule set and WM catalog,
// maintaining cs. stats may be nil. An unknown name returns an error
// wrapping ErrUnknown.
func New(name string, set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) (match.Matcher, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(set, db, cs, stats), nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknown, name)
}
