// Package trace records simulator events for post-mortem inspection: a
// recorder that retains every event of a run, plain-text rendering, JSON
// Lines dumping (the machine-readable format of `amacsim -trace`, for a
// single run and for `-replay` alike), and per-kind summaries. It plugs
// into sim.Config.Observer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/absmac/absmac/internal/sim"
)

// Recorder captures every event of a run — what -v and -trace promise —
// so memory grows with the execution. The zero value is unusable; create
// recorders with New.
type Recorder struct {
	events []sim.Event
	counts map[sim.EventKind]int
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{counts: make(map[sim.EventKind]int)}
}

// Observer returns the callback to install as sim.Config.Observer.
func (r *Recorder) Observer() func(sim.Event) { return r.record }

func (r *Recorder) record(ev sim.Event) {
	r.counts[ev.Kind]++
	r.events = append(r.events, ev)
}

// Count returns how many events of the given kind were observed.
func (r *Recorder) Count(k sim.EventKind) int { return r.counts[k] }

// Events returns the recorded events in observation order (the recorder's
// own slice: read it, do not modify it). Event.Message references may
// point at buffers a pooling algorithm has since recycled (see
// sim.Config.Observer); inspect their dynamic type, not their contents —
// Format prints only %T for this reason.
func (r *Recorder) Events() []sim.Event { return r.events }

// Format renders one event as a single line.
func Format(ev sim.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8d %-9s node=%-4d", ev.Time, ev.Kind, ev.Node)
	switch ev.Kind {
	case sim.EventDeliver:
		fmt.Fprintf(&b, " from=%-4d", ev.Peer)
	case sim.EventDecide:
		fmt.Fprintf(&b, " value=%d", ev.Value)
	}
	if ev.Message != nil && ev.Kind != sim.EventDecide && ev.Kind != sim.EventCrash {
		fmt.Fprintf(&b, " msg=%T", ev.Message)
	}
	return b.String()
}

// Dump writes the recorded events to w, one line each.
func (r *Recorder) Dump(w io.Writer) error {
	for _, ev := range r.events {
		if _, err := fmt.Fprintln(w, Format(ev)); err != nil {
			return fmt.Errorf("trace: dump: %w", err)
		}
	}
	return nil
}

// Summary renders the per-kind counts in kind order. It iterates
// sim.EventKinds, so kinds added to the simulator (replay divergence,
// say) appear here without this package changing.
func (r *Recorder) Summary() string {
	var b strings.Builder
	for _, k := range sim.EventKinds() {
		if c := r.counts[k]; c > 0 {
			fmt.Fprintf(&b, "%s=%d ", k, c)
		}
	}
	return strings.TrimSpace(b.String())
}

// JSONLEvent is the machine-readable rendering of one event: the schema of
// DumpJSONL lines, which `amacsim -trace` writes for a single run and a
// replay alike. Message contents are never serialized — pooling algorithms may
// have recycled the buffer by dump time (see Events) — only the dynamic
// type name.
type JSONLEvent struct {
	Time int64  `json:"t"`
	Kind string `json:"kind"`
	Node int    `json:"node"`
	// Peer and Value are pointers so that the valid zero values (node 0
	// as a delivery's sender, a decide of value 0) survive omitempty:
	// present exactly when the kind carries them.
	Peer  *int   `json:"peer,omitempty"`
	Value *int   `json:"value,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// DumpJSONL writes the recorded events to w as JSON Lines, one JSONLEvent
// object per line — the machine-readable counterpart of Dump.
func (r *Recorder) DumpJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.events {
		je := JSONLEvent{Time: ev.Time, Kind: ev.Kind.String(), Node: ev.Node}
		switch ev.Kind {
		case sim.EventDeliver:
			peer := ev.Peer
			je.Peer = &peer
		case sim.EventDecide:
			v := int(ev.Value)
			je.Value = &v
		}
		if ev.Message != nil && ev.Kind != sim.EventDecide && ev.Kind != sim.EventCrash {
			je.Msg = fmt.Sprintf("%T", ev.Message)
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: dump jsonl: %w", err)
		}
	}
	return nil
}
