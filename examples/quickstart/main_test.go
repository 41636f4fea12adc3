package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example in-process: a returned error or a panic fails
// it, and so does a first run that does not reach consensus.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v; output:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "agreement=true validity=true termination=true") {
		t.Errorf("the first run did not reach consensus:\n%s", out.String())
	}
}
