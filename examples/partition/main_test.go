package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example in-process: a returned error (a result that
// did not come out as the example documents) or a panic fails it.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v; output:\n%s", err, out.String())
	}
}
