package main

import "testing"

// TestServingExample runs the program: it checks its own results and exits
// the test binary non-zero through log.Fatal when a check fails.
func TestServingExample(t *testing.T) { main() }
