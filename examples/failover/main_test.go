package main

import "testing"

// TestFailoverExample runs the program: it checks its own results and exits
// the test binary non-zero through log.Fatal when a check fails.
func TestFailoverExample(t *testing.T) { main() }
