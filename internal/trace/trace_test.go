package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func runWith(r *Recorder) {
	inputs := []amac.Value{0, 1, 0}
	sim.Run(sim.Config{
		Graph:     graph.Clique(3),
		Inputs:    inputs,
		Factory:   twophase.Factory,
		Scheduler: sim.Synchronous{},
		Observer:  r.Observer(),
	})
}

func TestRecorderCapturesEverything(t *testing.T) {
	r := New()
	runWith(r)
	total := 0
	for _, k := range sim.EventKinds() {
		total += r.Count(k)
	}
	if total == 0 {
		t.Fatal("no events recorded")
	}
	if got := len(r.Events()); got != total {
		t.Fatalf("retained %d of %d events", got, total)
	}
	if r.Count(sim.EventDecide) != 3 {
		t.Fatalf("decides = %d, want 3", r.Count(sim.EventDecide))
	}
	if r.Count(sim.EventBroadcast) == 0 || r.Count(sim.EventAck) == 0 {
		t.Fatal("missing broadcast/ack counts")
	}
}

func TestFormatAndDump(t *testing.T) {
	r := New()
	runWith(r)
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"broadcast", "deliver", "ack", "decide", "value=1", "from="} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	r := New()
	runWith(r)
	s := r.Summary()
	for _, want := range []string{"broadcast=", "deliver=", "ack=", "decide=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestDumpJSONL(t *testing.T) {
	r := New()
	runWith(r)
	var b strings.Builder
	if err := r.DumpJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(r.Events()) {
		t.Fatalf("dumped %d lines for %d events", len(lines), len(r.Events()))
	}
	decides, delivers := 0, 0
	for _, line := range lines {
		var ev JSONLEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		switch ev.Kind {
		case "decide":
			// The decide value must be present even when it is 0.
			if ev.Value == nil {
				t.Fatalf("decide line %q lost its value", line)
			}
			decides++
		case "deliver":
			// Likewise the sender, even when it is node 0.
			if ev.Peer == nil {
				t.Fatalf("deliver line %q lost its peer", line)
			}
			delivers++
		}
	}
	if decides != 3 || delivers == 0 {
		t.Fatalf("jsonl saw %d decides, %d delivers", decides, delivers)
	}
}

// TestSummaryCoversAllKinds feeds the recorder one synthetic event of
// every registered kind: each must appear in the summary, so a kind added
// to the simulator cannot be silently skipped (the old implementation
// iterated a hard-coded first..last range).
func TestSummaryCoversAllKinds(t *testing.T) {
	r := New()
	for _, k := range sim.EventKinds() {
		r.record(sim.Event{Kind: k, Time: 1, Node: 0})
	}
	s := r.Summary()
	for _, k := range sim.EventKinds() {
		if !strings.Contains(s, k.String()+"=1") {
			t.Fatalf("summary %q misses kind %s", s, k)
		}
	}
}
