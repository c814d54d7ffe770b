package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL exports the currently retained events as JSONL.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Events())
}

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto). Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Unit        string        `json:"displayTimeUnit"`
}

// kindLane maps each event kind to a Chrome-trace (category, tid)
// lane so the layers render as separate tracks.
func kindLane(k Kind) (string, int) {
	switch k {
	case KindTupleInsert, KindTupleDelete:
		return "storage", 1
	case KindCondScan, KindPatternPropagate, KindJoinEval:
		return "match", 2
	case KindActivation, KindDeactivation:
		return "conflict", 3
	case KindRuleFire, KindTxnCommit, KindTxnAbort:
		return "execute", 4
	case KindBatchApply:
		return "batch", 5
	}
	return "other", 6
}

// WriteChromeTrace writes events in the Chrome trace_event JSON format
// (load in chrome://tracing or https://ui.perfetto.dev). Events with a
// duration become complete ("X") slices; instantaneous ones become
// instant ("i") marks.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), Unit: "ns"}
	for _, ev := range events {
		cat, tid := kindLane(ev.Kind)
		name := ev.Kind.String()
		if ev.Rule != "" {
			name += " " + ev.Rule
		} else if ev.Class != "" {
			name += " " + ev.Class
		}
		ce := chromeEvent{
			Name: name,
			Cat:  cat,
			TS:   float64(ev.At) / float64(time.Microsecond),
			PID:  1,
			TID:  tid,
			Args: map[string]any{"seq": ev.Seq},
		}
		if ev.Rule != "" {
			ce.Args["rule"] = ev.Rule
		}
		if cat == "match" && ev.CE >= 0 {
			ce.Args["ce"] = ev.CE
		}
		if ev.Class != "" {
			ce.Args["class"] = ev.Class
		}
		if ev.ID != 0 {
			ce.Args["id"] = ev.ID
		}
		if ev.Count != 0 {
			ce.Args["count"] = ev.Count
		}
		if ev.Extra != "" {
			ce.Args["extra"] = ev.Extra
		}
		if ev.Dur > 0 {
			ce.Phase = "X"
			ce.Dur = float64(ev.Dur) / float64(time.Microsecond)
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTrace exports the currently retained events in Chrome
// trace_event format.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Events())
}
