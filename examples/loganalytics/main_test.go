package main

import "testing"

// TestLogAnalyticsExample runs the program: it checks its own results and exits
// the test binary non-zero through log.Fatal when a check fails.
func TestLogAnalyticsExample(t *testing.T) { main() }
