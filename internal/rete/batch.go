package rete

import (
	"fmt"
	"time"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// This file is the Rete network's maintenance path: a batch of
// same-class WMEs — a single WME is a one-entry batch — is pushed through
// each alpha memory once, and each join-like successor is
// right-activated with the whole batch — one pass over the parent token
// store per batch instead of one per WME. The
// successor ordering invariant (deeper condition elements first) applies
// to the batch exactly as it does to a single WME, so no duplicate
// partial matches arise: tokens created while draining the batch at level
// k pair with batch WMEs only through the tokenAdded cascade, never
// through a right activation that already ran.

// rightActivateBatch pairs every parent token with every batch WME in a
// single sweep of the parent store.
func (j *joinNode) rightActivateBatch(ws []*WME) {
	j.parent.eachToken(func(t *token) {
		for _, w := range ws {
			if j.performTests(t, w) {
				j.child.leftActivate(t, w, j.ce)
			}
		}
	})
}

// rightActivateBatch blocks stored tokens against the whole batch in one
// sweep: a token's descendants are deleted at most once however many
// batch WMEs block it.
func (n *negativeNode) rightActivateBatch(ws []*WME) {
	for t := range n.items {
		for _, w := range ws {
			if !n.performTests(t, w) {
				continue
			}
			if len(t.joinResults) == 0 {
				n.net.deleteDescendants(t)
			}
			jr := &negJoinResult{owner: t, wme: w}
			t.joinResults = append(t.joinResults, jr)
			w.negJRs = append(w.negJRs, jr)
		}
	}
}

// InsertBatch implements match.Matcher: the batch enters the
// network as a token set, amortizing the alpha checks and the beta-memory
// sweeps over every WME in the batch.
func (net *Network) InsertBatch(class string, entries []relation.DeltaEntry) error {
	wmes := make([]*WME, 0, len(entries))
	for _, e := range entries {
		key := wmeKey{class, e.ID}
		if _, dup := net.wmes[key]; dup {
			return fmt.Errorf("rete: duplicate insert of %s:%d", class, e.ID)
		}
		w := &WME{Class: class, ID: e.ID, Tuple: e.Tuple.Clone()}
		net.wmes[key] = w
		wmes = append(wmes, w)
	}
	traced := net.tr.Enabled()
	tStart := net.tr.Now()
	var checked int64
	var scanDur time.Duration
	batch := make([]*WME, 0, len(wmes))
	for _, am := range net.alphaByClass[class] {
		batch = batch[:0]
		t0 := net.tr.Now()
		for _, w := range wmes {
			net.stats.Inc(metrics.NodeActivations) // one-input node check
			checked++
			if !am.matches(w) {
				continue
			}
			am.items[w] = struct{}{}
			w.amems = append(w.amems, am)
			batch = append(batch, w)
		}
		scanDur += net.tr.Now() - t0
		if len(batch) == 0 {
			continue
		}
		for _, s := range am.successors {
			tj := net.tr.Now()
			s.rightActivateBatch(batch)
			if traced {
				net.emitJoinEval(s, tj, net.tr.Now()-tj, class, int64(len(batch)))
			}
		}
	}
	if traced {
		net.tr.Emit(trace.Event{
			Kind: trace.KindCondScan, At: tStart, Dur: scanDur,
			CE: -1, Class: class, Count: checked,
		})
	}
	return nil
}

// DeleteBatch implements match.Matcher. All batch WMEs leave their
// alpha memories before any token tree is torn down, so the unblocking
// cascades at negative nodes never materialize transient tokens paired
// with a WME that is also dying in this batch.
func (net *Network) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	wmes := make([]*WME, 0, len(entries))
	for _, e := range entries {
		key := wmeKey{class, e.ID}
		w, ok := net.wmes[key]
		if !ok {
			return fmt.Errorf("rete: delete of unknown WME %s:%d", class, e.ID)
		}
		delete(net.wmes, key)
		for _, am := range w.amems {
			delete(am.items, w)
		}
		wmes = append(wmes, w)
	}
	for _, w := range wmes {
		for len(w.tokens) > 0 {
			net.deleteTokenTree(w.tokens[len(w.tokens)-1])
		}
	}
	// Unblock negative tokens whose last blocker died with this batch.
	for _, w := range wmes {
		jrs := w.negJRs
		w.negJRs = nil
		for _, jr := range jrs {
			t := jr.owner
			t.joinResults = removeJR(t.joinResults, jr)
			if len(t.joinResults) == 0 {
				if neg, ok := t.owner.(*negativeNode); ok {
					for _, c := range neg.children {
						c.tokenAdded(t)
					}
				}
			}
		}
	}
	return nil
}
