package consensus

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/sim"
)

// TestClassifyOrder pins the verdict order on checked executions: the most
// severe broken property names the violation, and a run is classified
// exactly when its report is not OK.
func TestClassifyOrder(t *testing.T) {
	cases := []struct {
		name   string
		inputs []amac.Value
		// decided[i] is node i's decision, or -1 for undecided.
		decided   []amac.Value
		substrate bool
		want      string // "" for a clean run
	}{
		{"agreement and termination", []amac.Value{0, 1, 1}, []amac.Value{0, 1, -1}, false, KindAgreement},
		{"validity and termination", []amac.Value{0, 0}, []amac.Value{1, -1}, false, KindValidity},
		{"termination alone", []amac.Value{0, 1}, []amac.Value{0, -1}, false, KindNonTermination},
		{"substrate alone", []amac.Value{0, 1}, []amac.Value{1, 1}, true, KindSubstrate},
		{"ok", []amac.Value{0, 1}, []amac.Value{1, 1}, false, ""},
	}
	for _, c := range cases {
		res := result(len(c.inputs))
		res.Quiescent, res.Events = true, 42
		for i, d := range c.decided {
			if d >= 0 {
				res.Decided[i], res.Decision[i] = true, d
			}
		}
		if c.substrate {
			res.Violations = append(res.Violations, sim.Violation{Node: 0, Desc: "boom"})
		}
		rep := Check(c.inputs, res)
		v := Classify(rep, res)
		if (v == nil) != rep.OK() {
			t.Fatalf("%s: Classify = %+v but Report.OK() = %v", c.name, v, rep.OK())
		}
		if c.want == "" {
			if v != nil {
				t.Errorf("%s: clean run classified %+v", c.name, v)
			}
			continue
		}
		if v == nil {
			t.Fatalf("%s: not classified, want %s (report %+v)", c.name, c.want, rep)
		}
		if v.Kind != c.want {
			t.Errorf("%s: classified %s, want %s (report %+v)", c.name, v.Kind, c.want, rep)
		}
		if len(v.Errors) != len(rep.Errors) || !v.Quiescent || v.Events != 42 {
			t.Errorf("%s: violation %+v does not carry the report's errors and the result's quiescence and events", c.name, v)
		}
	}
}

// TestSeverityMatchesClassify: for every pair of kinds, a report that
// breaks both classifies as the kind Severity ranks first.
func TestSeverityMatchesClassify(t *testing.T) {
	kinds := []string{KindAgreement, KindValidity, KindNonTermination, KindSubstrate}
	// failing builds a report whose listed kinds failed. Every failure
	// carries an error, so the substrate entry fails with any of them.
	failing := func(ks ...string) *Report {
		r := &Report{Agreement: true, Validity: true, Termination: true, Errors: []string{"broken"}}
		for _, k := range ks {
			switch k {
			case KindAgreement:
				r.Agreement = false
			case KindValidity:
				r.Validity = false
			case KindNonTermination:
				r.Termination = false
			}
		}
		return r
	}
	for _, a := range kinds {
		for _, b := range kinds {
			if a == b {
				continue
			}
			v := Classify(failing(a, b), &sim.Result{})
			if v == nil || (v.Kind != a && v.Kind != b) {
				t.Fatalf("%s+%s: classified %+v", a, b, v)
			}
			other := a
			if v.Kind == a {
				other = b
			}
			if Severity(v.Kind) >= Severity(other) {
				t.Errorf("%s+%s: Classify prefers %s, Severity ranks %s (%d) before it (%d)",
					a, b, v.Kind, other, Severity(other), Severity(v.Kind))
			}
		}
		if Severity(a) >= Severity("unknown") {
			t.Errorf("unknown kind ranks at %d, not below %s (%d)", Severity("unknown"), a, Severity(a))
		}
	}
}
