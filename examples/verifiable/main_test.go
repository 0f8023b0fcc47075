package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example end to end on the group form of Feldman VSS:
// every honest share verifies, the forged share is rejected, and the sums
// verify against the aggregated commitment and reconstruct the total.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"forged share detected and rejected",
		"verified aggregate: 1000 (expected 1000)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
