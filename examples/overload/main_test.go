package main

import "testing"

// TestOverloadExample runs the program: it checks its own results and
// exits the test binary non-zero through log.Fatal when a check fails.
// It paces its feed in real time, which takes seconds under -race.
func TestOverloadExample(t *testing.T) {
	if testing.Short() {
		t.Skip("paces its feed in real time; skipped under -short")
	}
	main()
}
