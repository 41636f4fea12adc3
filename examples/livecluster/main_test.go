package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example in-process: every run must reach consensus
// (exit 1 otherwise) and none may fail to run (exit 2).
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}
