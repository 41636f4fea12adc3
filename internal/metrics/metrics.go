// Package metrics is the repository's allocation-free, deterministic
// metrics layer: fixed-slot counters and gauges with high-water tracking,
// registered once per engine Reset and read back in sorted registration
// order.
//
// Design rules, all load-bearing for the determinism contract:
//
//   - Handles are values. Counter and Gauge are two-word structs
//     {registry, slot}; every mutator no-ops when the registry pointer is
//     nil, so code paths instrument unconditionally and a disabled
//     registry costs one predictable branch — no allocation, no interface
//     dispatch, no build tags. The zero handle is the disabled handle.
//   - Registration deduplicates by name: registering an existing name
//     with the same kind returns a handle to the existing slot (this is
//     how n nodes share one "proposals" counter), and a kind mismatch
//     panics loudly. Per-run cost is therefore O(registered slots), never
//     O(events): after the first Reset of a reused engine every
//     registration is a map hit and Reset zeroes a flat slice.
//   - Export never ranges a map. The registry maintains a name-sorted
//     index slice incrementally at registration time; Snapshot and
//     WriteText iterate that slice, so detlint's maporder rule holds by
//     construction and identical runs export byte-identical text.
//   - The package is wall-clock-free and seedless: nothing here calls
//     time.Now.
//
// A Registry is not goroutine-safe: one registry per engine (or per sweep
// worker), merged with Merge where aggregation is wanted.
package metrics

import (
	"fmt"
	"io"
)

type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

type slot struct {
	name string
	k    kind
	val  int64 // counter total, or gauge current value
	high int64 // gauge high-water mark
}

// Registry owns a fixed set of named metric slots. The zero value of
// *Registry (nil) is the disabled registry: every registration returns a
// disabled handle and every export is empty. Create enabled registries
// with New.
type Registry struct {
	slots []slot
	index map[string]int
	// order holds slot indices sorted by name, maintained by insertion at
	// registration time so no export path ever ranges the index map.
	order []int
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{index: make(map[string]int)}
}

// register interns a slot for name, creating it on first sight and
// panicking on a kind mismatch with an earlier registration.
func (r *Registry) register(name string, k kind) int {
	if i, ok := r.index[name]; ok {
		if r.slots[i].k != k {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, r.slots[i].k, k))
		}
		return i
	}
	i := len(r.slots)
	r.slots = append(r.slots, slot{name: name, k: k})
	r.index[name] = i
	// Insert i into the name-sorted order slice (registration is rare and
	// the slice is small; linear insertion keeps this dependency-free).
	pos := len(r.order)
	for j, oi := range r.order {
		if r.slots[oi].name > name {
			pos = j
			break
		}
	}
	r.order = append(r.order, 0)
	copy(r.order[pos+1:], r.order[pos:])
	r.order[pos] = i
	return i
}

// Counter registers (or re-opens) a monotonically increasing counter.
// On a nil registry it returns the disabled handle.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{r: r, i: r.register(name, kindCounter)}
}

// Gauge registers (or re-opens) a gauge with high-water tracking.
// On a nil registry it returns the disabled handle.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{r: r, i: r.register(name, kindGauge)}
}

// Reset zeroes every slot's value while keeping all registrations, so a
// reused engine pays O(registered slots) per run. Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.slots {
		s := &r.slots[i]
		s.val, s.high = 0, 0
	}
}

// Len reports the number of registered slots. Nil-safe.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Counter is a monotonically increasing counter handle. The zero value is
// disabled: every method no-ops (or returns zero).
type Counter struct {
	r *Registry
	i int
}

// Inc adds one.
func (c Counter) Inc() {
	if c.r != nil {
		c.r.slots[c.i].val++
	}
}

// Add adds d (d must be >= 0; counters only go up).
func (c Counter) Add(d int64) {
	if c.r != nil {
		c.r.slots[c.i].val += d
	}
}

// Value returns the current total.
func (c Counter) Value() int64 {
	if c.r == nil {
		return 0
	}
	return c.r.slots[c.i].val
}

// Gauge is a last-value gauge handle that also tracks the highest value
// ever set since the last Reset. The zero value is disabled.
type Gauge struct {
	r *Registry
	i int
}

// Set records v and raises the high-water mark when v exceeds it.
func (g Gauge) Set(v int64) {
	if g.r == nil {
		return
	}
	s := &g.r.slots[g.i]
	s.val = v
	if v > s.high {
		s.high = v
	}
}

// Value returns the last set value.
func (g Gauge) Value() int64 {
	if g.r == nil {
		return 0
	}
	return g.r.slots[g.i].val
}

// High returns the high-water mark.
func (g Gauge) High() int64 {
	if g.r == nil {
		return 0
	}
	return g.r.slots[g.i].high
}

// Sample is one exported slot: Value for counters, Value and High for
// gauges (a counter's High is always 0).
type Sample struct {
	Name  string
	Kind  string
	Value int64
	High  int64
}

// Snapshot returns every slot as a Sample, sorted by name. The sort order
// comes from the incrementally maintained order slice — no map iteration.
// Nil-safe (returns nil).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.order))
	for _, i := range r.order {
		s := &r.slots[i]
		out = append(out, Sample{Name: s.name, Kind: s.k.String(), Value: s.val, High: s.high})
	}
	return out
}

// WriteText renders every slot as one line, sorted by name:
//
//	name value                                  (counter)
//	name value high=H                           (gauge)
//
// Identical registries render byte-identically. Nil-safe (writes nothing).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, i := range r.order {
		s := &r.slots[i]
		var err error
		switch s.k {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", s.name, s.val)
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d high=%d\n", s.name, s.val, s.high)
		}
		if err != nil {
			return fmt.Errorf("metrics: write: %w", err)
		}
	}
	return nil
}

// Merge folds src into r: counters add, gauges keep src's last value and
// the maximum of the two high-water marks. Slots missing from r are
// registered. Nil-safe in both directions.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for si := range src.slots {
		ss := &src.slots[si]
		di := r.register(ss.name, ss.k)
		ds := &r.slots[di]
		switch ss.k {
		case kindCounter:
			ds.val += ss.val
		case kindGauge:
			ds.val = ss.val
			if ss.high > ds.high {
				ds.high = ss.high
			}
		}
	}
}
